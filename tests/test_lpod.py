import random
from itertools import combinations

import pytest

from conftest import atom_names, name_sets
from lpodc.engine import answer_sets
from lpodc.lpod import (
    CandidateAnswerSet,
    Comparison,
    Criterion,
    assumption,
    assumption_candidates,
    compare,
    degrees_from_atoms,
    option,
    preferred,
    split_candidate_projections,
    split_programs,
)
from lpodc.model import Dialect, canonicalize
from lpodc.parser import parse
from lpodc.randgen import random_lpod


def rule_of(p, idx):
    return p.nonregular_rules[idx - 1]


def test_option_second_of_first_rule(pi1):
    r = option(rule_of(pi1, 1), 2)
    assert str(r.head) == "b"
    assert atom_names(r.neg) == {"c", "a"}
    assert not r.pos


def test_option_first_of_first_rule(pi1):
    r = option(rule_of(pi1, 1), 1)
    assert str(r.head) == "a"
    assert atom_names(r.neg) == {"c"}


def test_option_second_of_second_rule(pi1):
    r = option(rule_of(pi1, 2), 2)
    assert str(r.head) == "c"
    assert atom_names(r.neg) == {"d", "b"}


def test_option_index_out_of_range(pi1):
    with pytest.raises(IndexError):
        option(rule_of(pi1, 1), 3)


def test_split_program_counts(pi1, pi2):
    assert len(split_programs(pi1)) == 4
    assert len(split_programs(pi2)) == 12


def test_split_programs_of_regular_only_program():
    p = canonicalize(parse("a.", Dialect.LPOD))
    programs = split_programs(p)
    assert len(programs) == 1
    assert name_sets(s.atoms for s in answer_sets(programs[0])) == {frozenset({"a"})}


def _assumption_strings(rules):
    out = set()
    for r in rules:
        head = str(r.head) if r.head is not None else ""
        body = tuple(sorted(atom_names(r.pos))) + tuple(
            "not " + n for n in sorted(atom_names(r.neg))
        )
        out.add((head, body))
    return out


def test_assumption_block_for_degree_one(pi1):
    rules = assumption(rule_of(pi1, 1), 1)
    assert _assumption_strings(rules) == {
        ("body_1", ("not c",)),
        ("", ("not body_1",)),
        ("a", ("body_1",)),
        ("", ("b", "body_1", "not a")),
    }


def test_assumption_block_for_degree_zero(pi1):
    rules = assumption(rule_of(pi1, 1), 0)
    assert _assumption_strings(rules) == {
        ("body_1", ("not c",)),
        ("", ("body_1",)),
        ("", ("a", "body_1")),
        ("", ("b", "body_1", "not a")),
    }


def test_assumption_block_for_second_rule_degree_two(pi1):
    rules = assumption(rule_of(pi1, 2), 2)
    strings = _assumption_strings(rules)
    assert ("c", ("body_2",)) in strings
    assert ("", ("b", "body_2")) in strings


def candidate_map(candidates):
    return {c.assumption: (atom_names(c.atoms), c.degrees) for c in candidates}


def test_pi1_candidates(pi1):
    got = candidate_map(assumption_candidates(pi1))
    assert got == {
        (1, 1): ({"a", "b"}, (1, 1)),
        (2, 1): ({"b"}, (2, 1)),
        (0, 2): ({"c"}, (1, 2)),
    }


def test_pi2_candidates(pi2):
    got = candidate_map(assumption_candidates(pi2))
    assert got == {
        (1, 3): ({"hotel(1)", "close", "star2"}, (1, 3)),
        (2, 2): ({"hotel(2)", "med", "star3"}, (2, 2)),
        (4, 1): ({"hotel(3)", "tooFar", "star4"}, (4, 1)),
    }


def test_inconsistent_program_has_no_candidates(pi1):
    p = canonicalize(
        parse("a * b :- not c.\nb * c :- not d.\n:- a.\n:- b.\n:- c.", Dialect.LPOD)
    )
    assert assumption_candidates(p) == ()


def test_pi2_compare_cardinality():
    s1 = CandidateAnswerSet(frozenset(), (1, 3), (1, 3))
    s2 = CandidateAnswerSet(frozenset(), (2, 2), (2, 2))
    s3 = CandidateAnswerSet(frozenset(), (4, 1), (4, 1))
    assert compare(s1, s2, Criterion.CARDINALITY) is Comparison.FIRST_PREFERRED
    assert compare(s2, s1, Criterion.CARDINALITY) is Comparison.SECOND_PREFERRED
    assert compare(s1, s3, Criterion.PARETO) is Comparison.NEITHER


def test_compare_self_is_neither(pi2):
    for c in assumption_candidates(pi2):
        for criterion in Criterion:
            assert compare(c, c, criterion) is Comparison.NEITHER


def test_pi1_preferred_under_every_criterion(pi1):
    for criterion in Criterion:
        pref = preferred(assumption_candidates(pi1), criterion)
        assert name_sets(c.atoms for c in pref) == {frozenset({"a", "b"})}


def test_pi2_preferred_per_criterion(pi2):
    s1 = frozenset({"hotel(1)", "close", "star2"})
    s2 = frozenset({"hotel(2)", "med", "star3"})
    s3 = frozenset({"hotel(3)", "tooFar", "star4"})
    expected = {
        Criterion.CARDINALITY: {s1},
        Criterion.INCLUSION: {s1, s3},
        Criterion.PARETO: {s1, s2, s3},
        Criterion.PENALTY_SUM: {s1, s2},
    }
    for criterion, want in expected.items():
        assert name_sets(c.atoms for c in preferred(assumption_candidates(pi2), criterion)) == want


def test_degenerate_program_all_candidates_preferred():
    p = canonicalize(parse("a :- not b.\nb :- not a.", Dialect.LPOD))
    cands = assumption_candidates(p)
    assert name_sets(c.atoms for c in cands) == {frozenset({"a"}), frozenset({"b"})}
    for criterion in Criterion:
        assert set(preferred(cands, criterion)) == set(cands)


def test_split_vs_assumption_agreement_randomized():
    rng = random.Random(101)
    for _ in range(60):
        p = random_lpod(rng)
        split = split_candidate_projections(p)
        assumption_side = frozenset(c.atoms for c in assumption_candidates(p))
        assert split == assumption_side


def test_degrees_match_atom_recomputation_randomized():
    rng = random.Random(103)
    for _ in range(40):
        p = random_lpod(rng)
        for c in assumption_candidates(p):
            assert c.degrees == degrees_from_atoms(p, c.atoms)
            for i, d in enumerate(c.degrees, start=1):
                assert 1 <= d <= p.nonregular_rules[i - 1].head_size()


def test_preference_relations_irreflexive_and_asymmetric():
    rng = random.Random(107)
    for _ in range(30):
        p = random_lpod(rng)
        cands = assumption_candidates(p)
        for criterion in Criterion:
            for c in cands:
                assert compare(c, c, criterion) is Comparison.NEITHER
            for c1, c2 in combinations(cands, 2):
                forward = compare(c1, c2, criterion)
                backward = compare(c2, c1, criterion)
                if forward is Comparison.FIRST_PREFERRED:
                    assert backward is Comparison.SECOND_PREFERRED
                if forward is Comparison.SECOND_PREFERRED:
                    assert backward is Comparison.FIRST_PREFERRED
