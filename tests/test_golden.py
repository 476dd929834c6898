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


# Text, csv and dot output of every subcommand, the JSON of the subcommands
# no golden file covers, budgeted runs and an error exit, pinned by
# (exit code, sha256 of stdout, byte length).
PINS = [
    (["expand", "x*y-z^5", "--m", "12"], 0,
     "1e10311635f7243051671a14492da17cfc6d428e97c428759c1f1e05ffe935ba", 4090),
    # the text path byte for byte: negative terms, and fractions in JSON
    (["expand", "x^2-y^2*z+z^3", "--m", "24"], 0,
     "9d100245e42232b8fb72aea749d4c26c33b97e01b87fbacdf47a34b0a234d1ee", 30225),
    (["expand", "3/2*x^3*y-2/7*z^2+x", "--m", "8", "--format", "json"], 0,
     "dadc29dd6b26e4129f74bb883f1fdff2e7e4c1118f4e994ada0cdb1bf96fec8b", 2854),
    # coefficients that reduce to 1 and to whole numbers, a bare constant
    # and terms in all three families
    (["expand", "1/2*z^2-1/3*x^3-1/6*y^3*z+5", "--m", "24", "--format", "json"], 0,
     "363549535beec9716f25359dd865d98b138a7fbe1d82c6c5c27a47efd3595417", 75141),
    (["an", "decompose", "--n", "3", "--m", "9", "--i", "1", "--j", "3"], 0,
     "66f121a68e504df5b168d19394640e346e380804432503e94265411472a6127c", 94),
    (["an", "decompose", "--n", "3", "--m", "9", "--i", "1", "--j", "3", "--format", "json"], 0,
     "689dc62d2c9e7ba4afae72c73b9ce62ffc02a9ea01a66d152a87b5346214e5de", 730),
    (["an", "table", "--n", "3", "--m", "3..9"], 0,
     "354d973becb8a91dc173b7f91493c44a8c07684379e3494e963c4ac7aee90163", 544),
    (["an", "table", "--n", "3", "--m", "3..9", "--format", "csv"], 0,
     "bd0518f423a8e51955671c1d8d3429b1f70dc15a7ddf3c5d4393d9adc5b65d75", 209),
    (["an", "table", "--n", "2", "--m", "2..6", "--format", "json"], 0,
     "d82d0c4ac0c603ca35965462f72b3bbdc7b0c4bf9c142f87a50074c6257d007b", 660),
    (["an", "graph", "--n", "4"], 0,
     "95ba753f6bf62766a18ce6ce7edd983a3d94f673841545b4528127b8310f6226", 90),
    (["an", "graph", "--n", "4", "--m", "6", "--format", "json"], 0,
     "eb90e6e5db1d620b669d893d43c0e8895191a48bebc07ab78db0e330d28cf3ce", 449),
    (["an", "verify", "--n", "3", "--m", "6"], 0,
     "85d83f3ec8651eb017b04ca607b90ae765b4ff5537041e76712887318ea3450d", 259),
    (["an", "verify", "--n", "3", "--m", "6", "--i", "1", "--j", "3"], 0,
     "e3e94bd4e86503d611a32d9e7ec8958f9228bc12505a3bbc6a0632cdc134cb1e", 99),
    # budgets these commands never reach: they pop no S-pair, since the
    # radical queries split on monomial generators, the cover claims stand on
    # one split of J and the witness refutations on monomial arcs
    (["an", "verify", "--n", "2", "--m", "8", "--budget-spairs", "5"], 0,
     "b22063612ff3f8d04eb41ce04040d1c4643fd94a83a18e4228102fb95e491fc3", 163),
    (["an", "verify", "--n", "2", "--m", "7", "--budget-spairs", "0", "--format", "json"], 0,
     "b493fea7884145706fb59fe3be978a7d6c53cc4a3910993f6e915974507a980b", 9700),
    (["an", "verify", "--n", "2", "--m", "8", "--budget-spairs", "20", "--format", "json"], 0,
     "3bc325ef91f9dd554f7a9c281b6bda02471ff9cdcf758220fe8c8146d5304a04", 10136),
    (["an", "verify", "--n", "3", "--m", "8", "--budget-spairs", "5"], 0,
     "7cd0160c0e68b10c4b24114a30a4f993ea35330c914139754e4bc0d55839ce8e", 259),
    (["an", "verify", "--n", "3", "--m", "8", "--budget-spairs", "5", "--format", "json"], 0,
     "86a1ca369a9d010abed72bb19be19ee55d23b04d4e3bd1ccdf2a123c458d7434", 40005),
    (["an", "verify", "--n", "4", "--m", "10", "--budget-spairs", "20", "--format", "json"], 0,
     "ca0b70ea04a2301964c07526a085429640f85125a925b21698f6a5a58e66924b", 112789),
    # budgeted runs that still build bases: the coordinate lemmas and the
    # z2/x3/y2 chain queries of D4
    (["d4", "verify", "--m", "6", "--budget-spairs", "5", "--format", "json"], 3,
     "a80896643fbfd80d8f64a3311639bb6e23272d1fd153ab84654a5c45aebacbcb", 14165),
    # the budget bounds the whole command: the largest basis at m6 pops 276
    # pairs, but the command pops 419 in all
    (["d4", "verify", "--m", "6", "--budget-spairs", "300", "--format", "json"], 3,
     "3aca17314f898b8db0f5043842dfc6494084e7a84109a22c65af2a67452a40ff", 14326),
    (["d4", "verify", "--m", "7", "--budget-spairs", "100"], 3,
     "212cef20ecb75952d1f1ec67eab9d884e3e0929bf6b85230b9fc2ba6de34bf46", 680),
    # the old A_n frontier, under 0.2 s each
    (["an", "verify", "--n", "2", "--m", "8", "--format", "json"], 0,
     "0c685d8862de1f04e2b2b95aba8f8fe8d7481c104fe2c5d9527adfa96761fe25", 10138),
    (["an", "verify", "--n", "4", "--m", "9", "--format", "json"], 0,
     "99f1b45c77090f2fbf3e39eb1e6582510d1ae8cd25b90e08e2e2e86ca39c82cd", 93266),
    (["an", "verify", "--n", "2", "--m", "10", "--format", "json"], 0,
     "a0777b47f1a5563d29c2668ad0a8e39f4b027e52dced53da16a7c67cc26ef2cd", 11207),
    # case-d tails of several components each, below the CI frontier
    (["an", "verify", "--n", "3", "--m", "9", "--format", "json"], 0,
     "8b464ea817cdec3f9066c5c7e6e5980ee70858425cc677b2daec18f19838551c", 41383),
    # 27 s while its six witness refutations built radical-trick bases
    (["an", "verify", "--n", "2", "--m", "12", "--format", "json"], 0,
     "8407f1100186b281dd1a03618807762d6adc461c4197fefe2e98ad6e3ce12cef", 12535),
    (["d4", "ideals", "--m", "5"], 0,
     "ff6eb77fd96370c429052bb04b3a4c7b82e78642bffe1dcaf55542e1c4dcd3b5", 3106),
    (["d4", "ideals", "--m", "5", "--format", "json"], 0,
     "eb3ba611a9b18f6d15aaba84fd63c3b4d331fdab5e76d22508abc8f51473f9b6", 3908),
    (["d4", "verify", "--m", "5"], 0,
     "3add15e46952631fda2b2bb22add9c9f2956152d20239a341f37f18ec4163d7d", 722),
    (["d4", "verify", "--m", "5", "--saturate"], 0,
     "3add15e46952631fda2b2bb22add9c9f2956152d20239a341f37f18ec4163d7d", 722),
    (["d4", "verify", "--m", "8"], 0,
     "340d3cfd33ef3082c408b9f99179df550384ef7888c1236f023bd15f45ca5234", 681),
    (["d4", "verify", "--m", "6", "--budget-spairs", "50000", "--format", "json"], 0,
     "1b246c84bd55f258073674897a5f6d397d3bd855c89cca1a84aa1bf93203099e", 14291),
    # the component checks at m != 5, the one run of the chart points
    # carried by phi2 and its inverse past m = 5
    (["d4", "verify", "--m", "6", "--saturate", "--format", "json"], 0,
     "18b0fe61ea160bed499e67de1f29a62b6272bac56607ca46fd6574d87d2d294e", 19437),
    # longer jet tails through the presolve's linear substitution
    (["d4", "verify", "--m", "10", "--format", "json"], 0,
     "331473c9128b9a0c86384235c8713eb628295569a9a7c2fdfe6811e280a27bd4", 15252),
    (["d4", "verify", "--m", "12", "--format", "json"], 0,
     "ade5b56b3e17e52405756b90acec16a4aa5dafa0fbaacc738a2e0c454208012b", 16052),
    (["d4", "graph", "--m", "6"], 0,
     "10903e28f6564cd89806664d7e0828c3e6d3740198a9571e367882eb36d02ade", 90),
    (["d4", "graph", "--m", "5", "--format", "json"], 0,
     "9a2cbb855eccc776516cec738fede168b0cfd59a4275ca4391a44b22f6974d39", 437),
    (["d4", "verify", "--m", "4"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
]


@pytest.mark.parametrize(
    "argv, code, digest, length", PINS, ids=[" ".join(argv) for argv, *_ in PINS]
)
def test_output_matches_pin(capsys, argv, code, digest, length):
    assert main(argv) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, length)
