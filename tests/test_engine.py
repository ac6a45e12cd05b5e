import random

import pytest

from conftest import PROGRAMS, load_program
from lpodc import crp, lpod
from lpodc.engine import (
    CapExceeded,
    ChoiceHead,
    CountAggregate,
    GroundProgram,
    GroundRule,
    WeakConstraint,
    _branch_order,
    _rows,
    answer_sets,
    answer_sets_each,
    brute_force_answer_sets,
    is_answer_set,
    is_stable,
    optimal_answer_sets,
    penalty_of,
    reduct,
    solve_rows,
)
from lpodc.model import Atom, Dialect, canonicalize
from lpodc.parser import parse
from lpodc.randgen import random_crp, random_ground_program, random_lpod, random_lpod_args

A, B, C, D, E = Atom("a"), Atom("b"), Atom("c"), Atom("d"), Atom("e")


def sets(results):
    return {frozenset(str(a) for a in s.atoms) for s in results}


def test_reduct_keeps_rule_when_negation_unmet():
    p = GroundProgram(rules=(GroundRule(head=A, neg=frozenset({B})),))
    r = reduct(p, frozenset())
    assert [(rule.head, set(rule.pos)) for rule in r.rules] == [(A, set())]


def test_reduct_drops_rule_when_negation_met():
    p = GroundProgram(rules=(GroundRule(head=A, neg=frozenset({B})),))
    r = reduct(p, frozenset({B}))
    assert not any(rule.head == A for rule in r.rules)


def test_reduct_of_first_split_program():
    p = GroundProgram(
        rules=(
            GroundRule(head=A, neg=frozenset({C})),
            GroundRule(head=B, neg=frozenset({D})),
        )
    )
    r = reduct(p, frozenset({A, B}))
    assert {(rule.head, frozenset(rule.pos)) for rule in r.rules} == {
        (A, frozenset()),
        (B, frozenset()),
    }


def test_answer_sets_first_split_program():
    p = GroundProgram(
        rules=(
            GroundRule(head=A, neg=frozenset({C})),
            GroundRule(head=B, neg=frozenset({D})),
        )
    )
    assert sets(answer_sets(p)) == {frozenset({"a", "b"})}


def test_answer_sets_fourth_split_program():
    p = GroundProgram(
        rules=(
            GroundRule(head=B, neg=frozenset({C, A})),
            GroundRule(head=C, neg=frozenset({D, B})),
        )
    )
    assert sets(answer_sets(p)) == {frozenset({"b"}), frozenset({"c"})}


def test_answer_sets_empty_program():
    assert sets(answer_sets(GroundProgram())) == {frozenset()}


def test_cap_exceeded():
    atoms = frozenset(Atom("p", (i,)) for i in range(30))
    with pytest.raises(CapExceeded):
        answer_sets(GroundProgram(extra_atoms=atoms))


def test_cap_none_searches_any_size():
    facts = tuple(GroundRule(head=Atom("p", (i,))) for i in range(30))
    p = GroundProgram(rules=facts)
    with pytest.raises(CapExceeded):
        answer_sets(p)
    expected = frozenset(r.head for r in facts)
    assert [s.atoms for s in answer_sets(p, cap=None)] == [expected]
    assert [s.atoms for s in optimal_answer_sets(p, cap=None)] == [expected]


def test_choice_rule_bounds_act_as_constraint():
    p = GroundProgram(rules=(GroundRule(head=ChoiceHead(atoms=(A, B), lower=1, upper=1)),))
    assert sets(answer_sets(p)) == {frozenset({"a"}), frozenset({"b"})}


def test_unbounded_choice_enumerates_subsets():
    p = GroundProgram(rules=(GroundRule(head=ChoiceHead(atoms=(A, B))),))
    assert len(answer_sets(p)) == 4


def test_aggregate_upper_bound_blocks_rule():
    # c derivable only while no more than zero of {a} holds
    p = GroundProgram(
        rules=(
            GroundRule(head=ChoiceHead(atoms=(A,))),
            GroundRule(
                head=C,
                aggregates=(CountAggregate(atoms=frozenset({A}), upper=0),),
            ),
        )
    )
    assert sets(answer_sets(p)) == {frozenset({"c"}), frozenset({"a"})}


def test_weak_constraint_single_violation():
    p = GroundProgram(
        rules=(GroundRule(head=A),),
        weak=(WeakConstraint(pos=frozenset({A}), weight=-1, terms=(A,)),),
    )
    best = optimal_answer_sets(p)
    assert sets(best) == {frozenset({"a"})}
    assert best[0].penalty == -1


def test_weak_constraint_minimization_direction():
    p = GroundProgram(
        rules=(GroundRule(head=ChoiceHead(atoms=(A,))),),
        weak=(WeakConstraint(pos=frozenset({A}), weight=-1, terms=(A,)),),
    )
    best = optimal_answer_sets(p)
    assert sets(best) == {frozenset({"a"})}
    assert best[0].penalty == -1


def test_weak_constraint_distinct_terms_counted_separately():
    p = GroundProgram(
        rules=(GroundRule(head=A), GroundRule(head=B)),
        weak=(
            WeakConstraint(pos=frozenset({A}), weight=1, terms=(1,)),
            WeakConstraint(pos=frozenset({B}), weight=1, terms=(2,)),
            WeakConstraint(pos=frozenset({B}), weight=1, terms=(2,)),
        ),
    )
    assert penalty_of(p, frozenset({A, B})) == 2


def test_every_result_passes_reduct_check():
    rng = random.Random(23)
    for _ in range(80):
        p = random_ground_program(rng, max_atoms=7, with_choice=True)
        for s in answer_sets(p, cap=32):
            assert is_answer_set(p, s.atoms)


def test_search_matches_brute_force():
    rng = random.Random(31)
    for _ in range(120):
        p = random_ground_program(rng, max_atoms=8, with_choice=True)
        assert sets(answer_sets(p, cap=32)) == sets(brute_force_answer_sets(p))


def test_search_matches_brute_force_with_aggregates():
    rng = random.Random(37)
    for _ in range(150):
        p = random_ground_program(rng, max_atoms=7, with_choice=True, with_aggregates=True)
        assert sets(answer_sets(p, cap=32)) == sets(brute_force_answer_sets(p))


def test_row_core_matches_brute_force_in_any_atom_order():
    # rows over a shuffled atom order, solved free and with one atom
    # assumed true or false, against plain subset enumeration
    for seed, aggregates in ((31, False), (37, True)):
        rng = random.Random(seed)
        for _ in range(120):
            p = random_ground_program(rng, max_atoms=7, with_choice=True, with_aggregates=aggregates)
            order = sorted(p.atoms, key=Atom.sort_key)
            rng.shuffle(order)
            rows = _rows(p, order)
            expected = sets(brute_force_answer_sets(p))

            def solved(t, f):
                return {
                    frozenset(str(a) for i, a in enumerate(order) if s >> i & 1)
                    for s in solve_rows(rows, len(order), t, f)
                }

            assert solved(0, 0) == expected
            if order:
                name = str(order[0])
                assert solved(1, 0) == {s for s in expected if name in s}
                assert solved(0, 1) == {s for s in expected if name not in s}


def test_leaf_check_rejects_a_positive_loop():
    # {c}. a :- b. b :- a.  a and b only support each other
    p = GroundProgram(
        rules=(
            GroundRule(head=ChoiceHead(atoms=(C,))),
            GroundRule(head=A, pos=frozenset({B})),
            GroundRule(head=B, pos=frozenset({A})),
        )
    )
    assert sets(answer_sets(p)) == {frozenset(), frozenset({"c"})}
    assert sets(brute_force_answer_sets(p)) == sets(answer_sets(p))
    order = _branch_order(p, p.atoms)
    rows = _rows(p, order)
    loop = sum(1 << i for i, a in enumerate(order) if a in (A, B))
    assert not is_stable(rows, loop)


def _random_body(rng, atoms):
    body = rng.sample(atoms, k=min(len(atoms), rng.randint(0, 3)))
    pos = frozenset(a for a in body if rng.random() < 0.5)
    neg = frozenset(a for a in body if a not in pos)
    return pos, neg


def test_rule_addition_and_removal_invariants():
    # (a) adding head<-body for a true head, (b)/(c) adding/removing a rule
    # whose body fails, (d)/(e) adding/removing a satisfied constraint
    rng = random.Random(41)
    checked = 0
    for _ in range(220):
        p = random_ground_program(rng, max_atoms=6)
        atoms = sorted(p.atoms, key=Atom.sort_key)
        for s in answer_sets(p, cap=32):
            interp = s.atoms
            pos, neg = _random_body(rng, atoms)
            if interp:
                head = rng.choice(sorted(interp, key=Atom.sort_key))
                extended = GroundProgram(
                    rules=p.rules + (GroundRule(head=head, pos=pos, neg=neg),),
                    extra_atoms=p.atoms,
                )
                assert is_answer_set(extended, interp)
            head = rng.choice(atoms)
            body_fails = not (pos <= interp and not (neg & interp))
            if body_fails:
                extended = GroundProgram(
                    rules=p.rules + (GroundRule(head=head, pos=pos, neg=neg),),
                    extra_atoms=p.atoms,
                )
                assert is_answer_set(extended, interp)
            constraint = GroundRule(head=None, pos=pos, neg=neg)
            if not constraint.body_holds(interp):
                extended = GroundProgram(
                    rules=p.rules + (constraint,), extra_atoms=p.atoms
                )
                assert is_answer_set(extended, interp)
            checked += 1
    assert checked >= 100


def test_removal_invariants():
    rng = random.Random(43)
    for _ in range(150):
        p = random_ground_program(rng, max_atoms=6)
        for s in answer_sets(p, cap=32):
            interp = s.atoms
            for i, r in enumerate(p.rules):
                if isinstance(r.head, ChoiceHead):
                    continue
                removable = (
                    (r.head is None and r.body_holds(interp))
                    or (r.head is not None and not r.body_holds(interp))
                )
                if removable:
                    smaller = GroundProgram(
                        rules=p.rules[:i] + p.rules[i + 1 :], extra_atoms=p.atoms
                    )
                    assert is_answer_set(smaller, interp)


def test_fresh_definitions_induce_bijection():
    rng = random.Random(47)
    for _ in range(100):
        p = random_ground_program(rng, max_atoms=6)
        atoms = sorted(p.atoms, key=Atom.sort_key)
        fresh = []
        rules = list(p.rules)
        for k in range(rng.randint(1, 3)):
            q = Atom("fresh", (k,))
            pos, neg = _random_body(rng, atoms)
            rules.append(GroundRule(head=q, pos=pos, neg=neg))
            fresh.append(q)
        extended = GroundProgram(rules=tuple(rules), extra_atoms=p.atoms | frozenset(fresh))
        base_sets = sets(answer_sets(p, cap=32))
        ext = answer_sets(extended, cap=32)
        assert len(ext) == len(answer_sets(p, cap=32))
        projected = {frozenset(str(a) for a in s.atoms if a.predicate != "fresh") for s in ext}
        assert projected == base_sets


def test_answer_sets_each_when_a_program_never_mentions_an_atom_another_defines():
    # c is defined by the first program only: the second never mentions it
    # and the third reads it negated, so in both it is false as unsupported;
    # e is only an extra atom of the second
    pick = GroundRule(head=ChoiceHead(atoms=(A, B), lower=1, upper=1))
    family = (
        GroundProgram(rules=(pick, GroundRule(head=C, pos=frozenset({A})))),
        GroundProgram(rules=(pick, GroundRule(head=None, pos=frozenset({B}))), extra_atoms=frozenset({E})),
        GroundProgram(rules=(GroundRule(head=D, neg=frozenset({C})),)),
    )
    solved = answer_sets_each(family)
    assert solved == [answer_sets(p) for p in family]
    assert [sets(r) for r in solved] == [
        {frozenset({"a", "c"}), frozenset({"b"})},
        {frozenset({"a"})},
        {frozenset({"d"})},
    ]
    # the cap bounds the union of the atoms, e included
    answer_sets_each(family, cap=5)
    with pytest.raises(CapExceeded, match="program has 5 atoms, cap is 4"):
        answer_sets_each(family, cap=4)


def _lpod(text):
    return canonicalize(parse(text, Dialect.LPOD))


def _crp(text):
    return canonicalize(parse(text, Dialect.CRP2))


def test_oracles_raise_cap_exceeded_above_the_cap_only():
    # |sigma| = 4 for both programs: the cap bounds sigma, as for one program
    oracles = (
        (lpod.split_candidate_projections, _lpod("a * b :- not c.\nc :- not d.")),
        (lpod.assumption_candidates, _lpod("a * b :- not c.\nc :- not d.")),
        (crp.assumption_projections, _crp("r1: a * b :+ not c.\nc :- not d.")),
    )
    for oracle, p in oracles:
        assert len(p.signature) == 4
        oracle(p, cap=4)
        with pytest.raises(CapExceeded) as raised:
            oracle(p, cap=3)
        assert str(raised.value) == "program has 4 atoms, cap is 3"


def _chain(heads):
    """a_i * b_i [* c_i] :- not d_i. per entry of heads, plus :- a_i, a_{i+1}."""
    lines = ["%s :- not d%d." % (" * ".join("%s%d" % (c, i) for c in "abc"[:n]), i) for i, n in enumerate(heads, 1)]
    lines += [":- a%d, a%d." % (i, i + 1) for i in range(1, len(heads))]
    return _lpod("\n".join(lines))


def test_answer_sets_each_equals_answer_sets_on_the_oracle_families():
    # every split, LPOD assumption and CR-Prolog2 assumption family, solved
    # together and one program at a time
    programs = [load_program(path.name) for path in sorted(PROGRAMS.iterdir())]
    for seed, generate in ((101, random_lpod), (103, random_lpod_args), (107, random_crp)):
        rng = random.Random(seed)
        programs += [generate(rng) for _ in range(100)]
    programs += [_chain(heads) for heads in ((2,), (3, 2), (2, 3, 3), (3, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))]
    families = 0
    for p in programs:
        if p.dialect is Dialect.LPOD:
            found = [lpod.split_programs(p), list(lpod.assumption_programs(p).values())]
        else:
            found = [list(crp.crp_assumption_programs(p).values())]
        for family in found:
            assert answer_sets_each(family, cap=None) == [answer_sets(q, cap=None) for q in family]
            families += 1
    assert len(programs) == 310 and families == 518
