import random
from itertools import product

import pytest

from conftest import atom_names, name_sets
from lpodc.crp import (
    GeneralizedAnswerSet,
    appl,
    appl_atom_space,
    assumption_projections,
    build_hpi,
    candidate_answer_sets,
    choice_term,
    crp_assumption_programs,
    dominates,
    generalized_answer_sets,
    preferred_answer_sets,
)
from lpodc.engine import ChoiceHead, GroundProgram, GroundRule, answer_sets
from lpodc.model import Dialect, Term, canonicalize
from lpodc.parser import parse
from lpodc.randgen import random_crp


def rule_strings(prog):
    out = set()
    for r in prog.rules:
        head = str(r.head) if r.head is not None else ""
        body = tuple(sorted(atom_names(r.pos))) + tuple(
            "not " + n for n in sorted(atom_names(r.neg))
        )
        out.add((head, body))
    return out


def test_hpi_contains_expected_rules(pi3):
    strings = rule_strings(build_hpi(pi3))
    assert ("t", ("appl(1)",)) in strings
    assert ("q", ("appl(2)", "appl(choice(2,1))")) in strings
    assert ("prefer(choice(2,1),choice(2,2))", ()) in strings
    assert ("fired(2)", ("appl(choice(2,1))",)) in strings


def test_hpi_without_ordered_rules_has_no_choice_terms():
    p = canonicalize(parse("r1: a :+. b :- not a.", Dialect.CRP2))
    strings = rule_strings(build_hpi(p))
    assert not any("choice" in h or any("choice" in b for b in body) for h, body in strings)


def test_hpi_prefer_fact_included(pi3p):
    strings = rule_strings(build_hpi(pi3p))
    assert ("prefer(2,1)", ()) in strings


def generalized_by_appl(p):
    return {frozenset(str(t) for t in g.appl_terms()): g for g in generalized_answer_sets(p)}


def test_pi3_has_exactly_five_generalized_answer_sets(pi3):
    gas = generalized_answer_sets(pi3)
    assert len(gas) == 5
    by_appl = generalized_by_appl(pi3)
    assert set(by_appl) == {
        frozenset({"1"}),
        frozenset({"2", "choice(2,1)"}),
        frozenset({"2", "choice(2,2)"}),
        frozenset({"1", "2", "choice(2,1)"}),
        frozenset({"1", "2", "choice(2,2)"}),
    }


def test_pi3_generalized_projections(pi3):
    projections = name_sets(g.project(pi3.signature) for g in generalized_answer_sets(pi3))
    assert projections == {
        frozenset({"t", "q", "s"}),
        frozenset({"q", "r"}),
        frozenset({"p", "s"}),
    }



def union_over_subsets(p):
    """The definition, kept as the reference: the union over every set A
    of appl atoms of the answer sets of the host program plus A as facts."""
    hpi = build_hpi(p)
    appl_atoms = appl_atom_space(p)
    found = set()
    for bits in product((False, True), repeat=len(appl_atoms)):
        facts = tuple(GroundRule(head=a) for a, chosen in zip(appl_atoms, bits) if chosen)
        prog = GroundProgram(rules=hpi.rules + facts, extra_atoms=hpi.extra_atoms)
        found.update(s.atoms for s in answer_sets(prog, cap=len(prog.atoms)))
    return found


@pytest.fixture(scope="module")
def one_search_corpus(pi3, pi3p):
    # every rule kind, two-head orders with a cr-rule, three-head orders of
    # each kind apart (2^|appl| reference solves stay affordable), and up to
    # three cr-rules
    shapes = (
        (229, 50, {"max_head": 2, "max_cr": 1}),
        (233, 30, {"max_ordered_cr": 0}),
        (239, 30, {"max_ordered": 0}),
        (241, 10, {"max_cr": 3, "max_head": 2}),
    )
    out = [pi3, pi3p]
    for seed, n, kwargs in shapes:
        rng = random.Random(seed)
        out.extend(random_crp(rng, **kwargs) for _ in range(n))
    return out


def test_one_search_equals_union_over_subsets(one_search_corpus):
    for p in one_search_corpus:
        gas = generalized_answer_sets(p)
        assert [g.atoms for g in gas] == [g.atoms for g in sorted(set(gas), key=GeneralizedAnswerSet.sort_key)]
        assert {g.atoms for g in gas} == union_over_subsets(p)


def test_hpi_defines_no_appl_atom(one_search_corpus):
    # the one search over free appl choices rests on this
    for p in one_search_corpus:
        for r in build_hpi(p).rules:
            heads = r.head.atoms if isinstance(r.head, ChoiceHead) else (r.head,)
            assert not any(h is not None and h.predicate == "appl" for h in heads)

def test_regular_only_program_generalized_sets():
    p = canonicalize(parse("a :- not b.\nb :- not a.", Dialect.CRP2))
    gas = generalized_answer_sets(p)
    assert all(not g.appl_terms() for g in gas)
    assert name_sets(g.project(p.signature) for g in gas) == {
        frozenset({"a"}),
        frozenset({"b"}),
    }


def test_dominance_on_pi3(pi3):
    by_appl = generalized_by_appl(pi3)
    s2 = by_appl[frozenset({"2", "choice(2,1)"})]
    s3 = by_appl[frozenset({"2", "choice(2,2)"})]
    s5 = by_appl[frozenset({"1", "2", "choice(2,2)"})]
    assert dominates(s2, s3)
    assert dominates(s2, s5)
    for g in generalized_answer_sets(pi3):
        assert not dominates(g, g)


def test_pi3_candidates(pi3):
    cands = generalized_by_appl(pi3)
    got = {
        frozenset(str(t) for t in c.appl_terms())
        for c in candidate_answer_sets(generalized_answer_sets(pi3))
    }
    assert got == {
        frozenset({"1"}),
        frozenset({"2", "choice(2,1)"}),
        frozenset({"1", "2", "choice(2,1)"}),
    }


def test_pi3_preferred(pi3):
    assert name_sets(
        preferred_answer_sets(candidate_answer_sets(generalized_answer_sets(pi3)), pi3.signature)
    ) == {
        frozenset({"t", "q", "s"}),
        frozenset({"q", "r"}),
    }


def test_pi3p_candidates_and_preferred(pi3p):
    sigma = pi3p.signature
    cands = candidate_answer_sets(generalized_answer_sets(pi3p))
    cand_proj = name_sets(c.project(sigma) for c in cands)
    assert cand_proj == {frozenset({"q", "r"})}
    assert name_sets(preferred_answer_sets(cands, sigma)) == {frozenset({"q", "r"})}


def test_regular_only_program_candidates_and_preferred():
    p = canonicalize(parse("a :- not b.\nb :- not a.", Dialect.CRP2))
    cands = candidate_answer_sets(generalized_answer_sets(p))
    assert len(cands) == 2
    assert name_sets(preferred_answer_sets(cands, p.signature)) == {frozenset({"a"}), frozenset({"b"})}


def test_assumption_program_count_and_contents(pi3):
    programs = crp_assumption_programs(pi3)
    assert len(programs) == 6
    assert set(programs) == {(x1, x2) for x1 in (0, 1) for x2 in (0, 1, 2)}
    prog = programs[(1, 0)]
    assert ("t", ()) in rule_strings(prog)
    sets = name_sets(
        frozenset(a for a in s.atoms if a in pi3.signature)
        for s in answer_sets(prog, cap=len(prog.atoms))
    )
    assert sets == {frozenset({"t", "q", "s"})}


def test_assumption_projection_equivalence_examples(pi3, pi3p):
    for p in (pi3, pi3p):
        oracle = frozenset(
            g.project(p.signature) for g in generalized_answer_sets(p)
        )
        assert oracle == assumption_projections(p)


def test_assumption_projection_equivalence_randomized():
    rng = random.Random(211)
    for _ in range(40):
        p = random_crp(rng)
        oracle = frozenset(g.project(p.signature) for g in generalized_answer_sets(p))
        assert oracle == assumption_projections(p)


def test_no_generalized_set_picks_two_positions_of_one_rule():
    rng = random.Random(223)
    programs = [random_crp(rng) for _ in range(25)]
    for p in programs:
        for g in generalized_answer_sets(p):
            per_rule = {}
            for t in g.appl_terms():
                if isinstance(t, Term) and t.functor == "choice":
                    per_rule.setdefault(t.args[0], set()).add(t.args[1])
            assert all(len(positions) == 1 for positions in per_rule.values())


def test_dominates_irreflexive_randomized():
    rng = random.Random(227)
    for _ in range(20):
        p = random_crp(rng)
        for g in generalized_answer_sets(p):
            assert not dominates(g, g)
