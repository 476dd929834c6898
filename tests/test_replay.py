"""Replay the grouped containment certificates of the golden files.

Every containment claim, each generator of one ideal in another, reports
one certificate that groups the generator indices by how each was decided
(groebner.generators_in).  This file re-checks those certificates from the
JSON alone, with the ideals rebuilt from the claim text, by Polynomial
arithmetic and no Groebner basis or engine query:

- the groups list each index 0..len(gens)-1 exactly once;
- each [k, index] under "generator" names equal polynomials;
- each generator under "restricts_to_zero" lies in the ideal by a rule
  that needs no basis.  In an A_n golden it has a variable of the
  component's ladder in every term: the presolve of an A_n component only
  zeroes coordinates, and each ladder variable is one of its generators.
  In a D4 golden, whose presolves also pivot on linear generators, it
  vanishes under the eliminations of the reference presolve
  (references.plain_presolve).

The "decided" entries stand on a reduced basis and are not replayed here;
tests/test_oracle.py cross-checks the engine against sympy.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from jetfibers.an import decompose_intersection, pair_ideal
from jetfibers.d4 import PHI1, PHI2, d4_ideals
from jetfibers.poly import linear_substitute
from references import plain_presolve

GOLDEN = Path(__file__).parent / "golden"
VERIFY_GOLDENS = sorted(p.name for p in GOLDEN.glob("*_verify_*.json"))

_AN = re.compile(r"J\(n(\d+),m(\d+);(\d+),(\d+)\) subset (\S+)")
_D4_CHART = re.compile(r"(phi[12])\(L(\d)\) subset L(\d)")
_D4_I0 = re.compile(r"(phi[12])\(I0\) subset I0\(m\d+\)")
_D4_LEMMA = re.compile(r"I0\(m\d+\) subset sqrt J(\d)\+J(\d)\(m\d+\)")
_D4_FLIP = re.compile(r"phi1\(J(\d)\) subset J(\d)\(m\d+\)")


def _grouped(node):
    """Every (claim, outcome, certificate) in a report tree whose certificate
    is a grouped containment certificate."""
    if isinstance(node, dict):
        cert = node.get("certificate")
        if isinstance(cert, dict) and cert.get("kind") == "generators":
            yield node["claim"], node["outcome"], cert
        for value in node.values():
            yield from _grouped(value)
    elif isinstance(node, list):
        for value in node:
            yield from _grouped(value)


def _an_containment(claim):
    """(gens, ideal, zero rule) of an A_n claim "J(...) subset C"."""
    n, m, i, j, label = _AN.fullmatch(claim).groups()
    n, m, i, j = int(n), int(m), int(i), int(j)
    (desc,) = [d for d in decompose_intersection(n, m, i, j).components if d.label == label]
    ladder = set(desc.ladder.codes())

    def on_ladder(g):
        return all(any(code in ladder for code, _ in mono) for mono, _ in g.items())

    return pair_ideal(n, m, i, j).generators, desc.ideal(n, m), on_ladder


def _d4_containment(claim, m):
    """(gens, ideal, zero rule) of a D4 containment claim."""
    fam = d4_ideals(m)
    autos = {PHI1.name: PHI1, PHI2.name: PHI2}
    if hit := _D4_CHART.fullmatch(claim):
        auto, src, dst = hit.groups()
        gens, ideal = autos[auto].on_ideal(fam.charts[int(src)]).generators, fam.charts[int(dst)]
    elif hit := _D4_I0.fullmatch(claim):
        gens, ideal = autos[hit.group(1)].on_ideal(fam.i0).generators, fam.i0
    elif hit := _D4_LEMMA.fullmatch(claim):
        i, j = map(int, hit.groups())
        gens, ideal = fam.i0.generators, fam.j[i] + fam.j[j]
    elif hit := _D4_FLIP.fullmatch(claim):
        src, dst = (fam.j[int(i)] for i in hit.groups())
        gens, ideal = PHI1.on_ideal(src).generators, dst
    else:
        raise AssertionError(f"no replay for the containment claim {claim!r}")
    eliminated = plain_presolve(ideal).eliminated
    return gens, ideal, lambda g: not linear_substitute(g, eliminated)


def replay_problems(cert, gens, ideal, restricts_to_zero) -> list[str]:
    """What the grouped certificate gets wrong about gens inside the ideal:
    an empty list when it replays.  restricts_to_zero(g) is the rule that
    puts a generator listed under "restricts_to_zero" in the ideal."""
    problems = []
    listed = (
        list(cert["restricts_to_zero"])
        + [k for k, _ in cert["generator"]]
        + [k for k, _ in cert["decided"]]
        + [k for k, *_ in cert.get("failed", ())]
    )
    if sorted(listed) != list(range(len(gens))):
        problems.append(f"groups list {sorted(listed)}, not 0..{len(gens) - 1} once each")
    for k, index in cert["generator"]:
        in_range = 0 <= k < len(gens) and 0 <= index < len(ideal.generators)
        if not in_range or gens[k] != ideal.generators[index]:
            problems.append(f"generator #{k} is not the ideal's generator #{index}")
    for k in cert["restricts_to_zero"]:
        if not (0 <= k < len(gens) and restricts_to_zero(gens[k])):
            problems.append(f"generator #{k} does not restrict to zero")
    return problems


def _containments(name):
    """(claim, outcome, certificate, gens, ideal, zero_rule) of every grouped
    certificate in the golden file."""
    payload = json.loads((GOLDEN / name).read_text())
    m = payload["config"]["m"]
    for claim, outcome, cert in _grouped(payload["reports"]):
        if payload["config"]["command"] == "an":
            gens, ideal, zero_rule = _an_containment(claim)
        else:
            gens, ideal, zero_rule = _d4_containment(claim, m)
        yield claim, outcome, cert, gens, ideal, zero_rule


@pytest.mark.parametrize("name", VERIFY_GOLDENS)
def test_grouped_certificates_replay(name):
    found = list(_containments(name))
    assert found, f"{name} holds no grouped certificate"
    for claim, outcome, cert, gens, ideal, zero_rule in found:
        assert outcome == "verified" and "failed" not in cert, claim
        assert replay_problems(cert, gens, ideal, zero_rule) == [], claim


def _mutations(cert, gens, ideal):
    """Copies of cert, each with one index moved to another group or edited."""
    out = []
    zero, named = cert["restricts_to_zero"], cert["generator"]
    if zero:
        moved = copy.deepcopy(cert)
        k = moved["restricts_to_zero"].pop(0)
        # named as the first generator of the ideal that it is not
        index = next(i for i, g in enumerate(ideal.generators) if g != gens[k])
        moved["generator"].append([k, index])
        out.append(moved)
        edited = copy.deepcopy(cert)
        edited["restricts_to_zero"][0] = zero[-1] if len(zero) > 1 else zero[0] + 1
        out.append(edited)
    if named:
        moved = copy.deepcopy(cert)
        k, _ = moved["generator"].pop(0)
        moved["restricts_to_zero"].append(k)
        out.append(moved)
        edited = copy.deepcopy(cert)
        edited["generator"][0][1] += 1
        out.append(edited)
        edited = copy.deepcopy(cert)
        edited["generator"][0][0] = named[-1][0] if len(named) > 1 else named[0][0] + 1
        out.append(edited)
    return out


@pytest.mark.parametrize("name", VERIFY_GOLDENS)
def test_replay_rejects_a_moved_or_edited_index(name):
    tried = 0
    for claim, _, cert, gens, ideal, zero_rule in _containments(name):
        for mutated in _mutations(cert, gens, ideal):
            assert replay_problems(mutated, gens, ideal, zero_rule), (claim, mutated)
            tried += 1
    assert tried
