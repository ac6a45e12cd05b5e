import random

from lpodc.model import (
    Atom,
    Dialect,
    Program,
    Rule,
    RuleKind,
    canonicalize,
    validate_program,
)
from lpodc.parser import parse
from lpodc.randgen import random_crp, random_lpod


def test_pi1_is_valid(pi1):
    assert validate_program(pi1).ok


def test_reserved_predicate_reported():
    p = Program(
        dialect=Dialect.LPOD,
        rules=(Rule(kind=RuleKind.REGULAR, head_atoms=(Atom("ap", (1,)),)),),
    )
    report = validate_program(p)
    assert not report.ok
    assert any("ap" in v.message for v in report.violations)


def test_body_aux_predicates_reserved():
    p = Program(
        dialect=Dialect.LPOD,
        rules=(Rule(kind=RuleKind.REGULAR, head_atoms=(Atom("body_3"),)),),
    )
    assert not validate_program(p).ok


def test_reserved_prefer_messages():
    def messages(text, dialect):
        return [v.message for v in validate_program(parse(text, dialect)).violations]

    assert messages("p :- prefer(r1,r2).", Dialect.CRP2) == ["reserved predicate prefer outside a fact"]
    for dialect in Dialect:
        assert messages("prefer(r1).", dialect) == ["reserved predicate prefer with arity 1"]
    assert messages("p :- prefer(a,b).", Dialect.LPOD) == ["reserved predicate prefer"]


def test_prefer_unknown_label_reported():
    rules = (
        Rule(kind=RuleKind.CR, head_atoms=(Atom("a"),), label="r1"),
    )
    p = Program(dialect=Dialect.CRP2, rules=rules, prefer_facts=(("r9", "r1"),))
    report = validate_program(p)
    assert any("r9" in v.message for v in report.violations)


def test_prefer_requires_crp_dialect():
    rules = (Rule(kind=RuleKind.ORDERED, head_atoms=(Atom("a"), Atom("b"))),)
    p = Program(dialect=Dialect.LPOD, rules=rules, prefer_facts=(("r1", "r1"),))
    assert not validate_program(p).ok


def test_choice_bounds_reported():
    def codes(lo, up):
        rule = Rule(kind=RuleKind.REGULAR, head_atoms=(Atom("a"), Atom("b")), choice_bounds=(lo, up))
        return [v.code for v in validate_program(Program(dialect=Dialect.LPOD, rules=(rule,))).violations]

    assert codes(3, 1) == ["empty-choice-bounds"]
    assert codes(-1, -2) == ["negative-choice-bound"]
    assert codes(0, -1) == ["negative-choice-bound"]
    assert codes(0, 2) == codes(2, 2) == codes(3, 3) == []


def test_maxdegree_constant_reported_in_lpod_only():
    # criterion documents declare #const maxdegree, which would rename it
    lpod = parse("p(maxdegree) * q.\n:- r(1,maxdegree).\n", Dialect.LPOD)
    assert [v.code for v in validate_program(lpod).violations] == ["reserved-constant"] * 2
    assert validate_program(parse("p(max_degree) * q.\n", Dialect.LPOD)).ok
    assert validate_program(parse("r1: p(maxdegree) :+.\n", Dialect.CRP2)).ok


def test_argument_constants_must_be_identifiers():
    # C and _c would be emitted as ASP variables, making the rule unsafe
    for dialect in Dialect:
        p = parse("a * b(C).\n:- c(1,_c), d(x_Y2).\n", dialect)
        assert [v.code for v in validate_program(p).violations] == ["bad-constant"] * 2
        assert validate_program(parse("a * b(c, -1, x_Y2).\n", dialect)).ok


def test_each_distinct_atom_reported_once():
    p = parse("a * b.\nx :- ap.\ny :- ap, not ap.\nz(C) :- a.\nw :- z(C).\n", Dialect.LPOD)
    assert [v.message for v in validate_program(p).violations] == [
        "reserved predicate ap",
        "argument 'C' of z(C) is not a valid constant",
    ]


def test_prefer_cycle_reported():
    rules = tuple(
        Rule(kind=RuleKind.CR, head_atoms=(Atom(a),), label=label)
        for a, label in (("a", "r1"), ("b", "r2"), ("c", "r3"))
    )

    def codes(*facts):
        p = Program(dialect=Dialect.CRP2, rules=rules, prefer_facts=facts)
        return [v.code for v in validate_program(p).violations]

    assert codes(("r1", "r1")) == ["prefer-cycle"]
    assert codes(("r1", "r2"), ("r2", "r1")) == ["prefer-cycle"]
    assert codes(("r1", "r2"), ("r2", "r3"), ("r3", "r1")) == ["prefer-cycle"]
    assert codes(("r1", "r2"), ("r2", "r3"), ("r1", "r3"), ("r1", "r2")) == []


def test_duplicate_labels_reported():
    rules = (
        Rule(kind=RuleKind.CR, head_atoms=(Atom("a"),), label="r1"),
        Rule(kind=RuleKind.CR, head_atoms=(Atom("b"),), label="r1"),
    )
    assert not validate_program(Program(dialect=Dialect.CRP2, rules=rules)).ok


def test_ordered_head_needs_two_atoms():
    rules = (Rule(kind=RuleKind.ORDERED, head_atoms=(Atom("a"),)),)
    assert not validate_program(Program(dialect=Dialect.LPOD, rules=rules)).ok


def test_canonicalize_pi3_index_layout(pi3):
    # cr-rules first, then ordered cr-rules
    by_label = {r.label: r for r in pi3.nonregular_rules}
    assert by_label["r1"].kind is RuleKind.CR and by_label["r1"].index == 1
    assert by_label["r2"].kind is RuleKind.ORDERED_CR and by_label["r2"].index == 2


def test_canonicalize_pi1_indices(pi1):
    ordered = pi1.nonregular_rules
    assert [r.index for r in ordered] == [1, 2]
    assert str(ordered[0].head_atoms[0]) == "a"
    assert str(ordered[1].head_atoms[0]) == "b"


def test_canonicalize_no_nonregular_is_identity():
    p = Program(
        dialect=Dialect.LPOD,
        rules=(Rule(kind=RuleKind.REGULAR, head_atoms=(Atom("a"),)),),
    )
    q = canonicalize(p)
    assert q.rules == p.rules
    assert not q.nonregular_rules


def test_canonicalize_idempotent_and_rule_preserving():
    rng = random.Random(5)
    for _ in range(40):
        p = random_lpod(rng) if rng.random() < 0.5 else random_crp(rng)
        q = canonicalize(p)
        assert canonicalize(q) == q
        strip = lambda r: (r.kind, r.head_atoms, r.body, r.choice_bounds)
        assert sorted(map(repr, map(strip, p.rules))) == sorted(map(repr, map(strip, q.rules)))
        assert validate_program(q).ok == validate_program(p).ok



def test_canonicalize_repeated_rule_object_gets_two_indices():
    r = Rule(kind=RuleKind.ORDERED, head_atoms=(Atom("a"), Atom("b")))
    q = canonicalize(Program(dialect=Dialect.LPOD, rules=(r, r)))
    assert [x.index for x in q.rules] == [1, 2]
    assert len({x.label for x in q.rules}) == 2
    assert canonicalize(q) == q

def test_assumption_domains_lpod(pi1, pi2):
    assert pi1.assumption_domains() == ((0, 1, 2), (0, 1, 2))
    assert pi2.assumption_domains() == ((0, 1, 2, 3, 4), (0, 1, 2, 3))


def test_assumption_domains_crp(pi3):
    assert pi3.assumption_domains() == ((0, 1), (0, 1, 2))


def test_signature_collects_rule_atoms(pi1):
    assert {str(a) for a in pi1.signature} == {"a", "b", "c", "d"}


def test_auto_labels_avoid_collisions():
    rules = (
        Rule(kind=RuleKind.CR, head_atoms=(Atom("a"),), label="r2"),
        Rule(kind=RuleKind.CR, head_atoms=(Atom("b"),)),
    )
    q = canonicalize(Program(dialect=Dialect.CRP2, rules=rules))
    labels = [r.label for r in q.nonregular_rules]
    assert len(set(labels)) == 2
