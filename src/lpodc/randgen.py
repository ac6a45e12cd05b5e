"""Seeded random program generators for cross-checking suites.

Sizes follow the verification budgets: tiny signatures, few non-regular
rules, so both the split/host oracles and the translation evaluator stay
within brute-force reach.
"""

from __future__ import annotations

import random

from .model import Atom, Dialect, Literal, Program, Rule, RuleKind, canonicalize
from .engine import ChoiceHead, CountAggregate, GroundProgram, GroundRule

ATOM_POOL = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")


def _body(rng: random.Random, atoms, max_len: int = 2) -> tuple:
    picks = rng.sample(atoms, k=min(len(atoms), rng.randint(0, max_len)))
    return tuple(
        Literal(atom=a if isinstance(a, Atom) else Atom(a), negated=rng.random() < 0.5)
        for a in picks
    )


def _choice_rule(rng: random.Random, atoms) -> Rule:
    """{e1; e2} with bounds lo..hi, lo in {0, 1}, over two of the atoms."""
    elems = tuple(Atom(a) for a in rng.sample(atoms, k=2))
    lo = rng.randint(0, 1)
    body = _body(rng, atoms, 1)
    return Rule(kind=RuleKind.REGULAR, head_atoms=elems, body=body, choice_bounds=(lo, rng.randint(max(lo, 1), 2)))


def random_lpod(
    rng: random.Random,
    max_atoms: int = 4,
    max_ordered: int = 3,
    max_head: int = 3,
    max_regular: int = 3,
) -> Program:
    atoms = list(ATOM_POOL[: rng.randint(2, max_atoms)])
    rules = []
    for _ in range(rng.randint(0, max_regular)):
        roll = rng.random()
        if roll < 0.2:
            rules.append(Rule(kind=RuleKind.REGULAR, head_atoms=(), body=_body(rng, atoms, 2) or (
                Literal(Atom(rng.choice(atoms))),)))
        elif roll < 0.35 and len(atoms) >= 2:
            rules.append(_choice_rule(rng, atoms))
        else:
            rules.append(
                Rule(
                    kind=RuleKind.REGULAR,
                    head_atoms=(Atom(rng.choice(atoms)),),
                    body=_body(rng, atoms, 2),
                )
            )
    for _ in range(rng.randint(1, max_ordered)):
        n = rng.randint(2, max_head)
        heads = tuple(Atom(a) for a in rng.sample(atoms, k=min(n, len(atoms))))
        if len(heads) < 2:
            heads = tuple(Atom(a) for a in (atoms * 2)[:2])
        rules.append(Rule(kind=RuleKind.ORDERED, head_atoms=heads, body=_body(rng, atoms, 2)))
    return canonicalize(Program(dialect=Dialect.LPOD, rules=tuple(rules)))


def random_lpod_args(rng: random.Random) -> Program:
    """An LPOD program over atoms with constant arguments. It always has a
    bounded choice over a numbered family p(1..k), which the translation
    folds into one conditional element p(P,X1,...): P=1..k, plus regular
    and ordered rules over that family and q(a), q(b), r(1,c)."""
    family = [Atom("p", (i,)) for i in range(1, rng.randint(2, 3) + 1)]
    others = [Atom("q", ("a",)), Atom("q", ("b",)), Atom("r", (1, "c"))]
    atoms = family + others[: rng.randint(1, len(others))]
    lo = rng.randint(0, 1)
    rules = [
        Rule(
            kind=RuleKind.REGULAR,
            head_atoms=tuple(family),
            body=_body(rng, atoms[len(family) :], 1),
            choice_bounds=(lo, rng.randint(max(lo, 1), len(family))),
        )
    ]
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.3:
            body = _body(rng, atoms, 2) or (Literal(rng.choice(atoms)),)
            rules.append(Rule(kind=RuleKind.REGULAR, body=body))
        else:
            head = (rng.choice(atoms),)
            rules.append(Rule(kind=RuleKind.REGULAR, head_atoms=head, body=_body(rng, atoms, 2)))
    for _ in range(rng.randint(1, 2)):
        heads = tuple(rng.sample(atoms, k=min(rng.randint(2, 3), len(atoms))))
        rules.append(Rule(kind=RuleKind.ORDERED, head_atoms=heads, body=_body(rng, atoms, 1)))
    return canonicalize(Program(dialect=Dialect.LPOD, rules=tuple(rules)))


def random_crp(
    rng: random.Random,
    max_atoms: int = 4,
    max_cr: int = 2,
    max_ordered_cr: int = 1,
    max_ordered: int = 1,
    max_head: int = 3,
    with_prefer: bool = True,
    with_choice: bool = False,
) -> Program:
    """A CR-Prolog2 program; `with_choice` adds one or two bounded choice
    rules to its regular part (and draws no more numbers otherwise)."""
    atoms = list(ATOM_POOL[: rng.randint(2, max_atoms)])
    rules = [_choice_rule(rng, atoms) for _ in range(rng.randint(1, 2) if with_choice else 0)]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            rules.append(
                Rule(kind=RuleKind.REGULAR, head_atoms=(), body=_body(rng, atoms, 2) or (
                    Literal(Atom(rng.choice(atoms))),))
            )
        else:
            rules.append(
                Rule(
                    kind=RuleKind.REGULAR,
                    head_atoms=(Atom(rng.choice(atoms)),),
                    body=_body(rng, atoms, 2),
                )
            )
    for _ in range(rng.randint(0, max_cr)):
        rules.append(
            Rule(
                kind=RuleKind.CR,
                head_atoms=(Atom(rng.choice(atoms)),),
                body=_body(rng, atoms, 1),
            )
        )
    for _ in range(rng.randint(0, max_ordered_cr)):
        n = min(rng.randint(2, max_head), len(atoms))
        if n >= 2:
            rules.append(
                Rule(
                    kind=RuleKind.ORDERED_CR,
                    head_atoms=tuple(Atom(a) for a in rng.sample(atoms, k=n)),
                    body=_body(rng, atoms, 1),
                )
            )
    for _ in range(rng.randint(0, max_ordered)):
        n = min(rng.randint(2, max_head), len(atoms))
        if n >= 2:
            rules.append(
                Rule(
                    kind=RuleKind.ORDERED,
                    head_atoms=tuple(Atom(a) for a in rng.sample(atoms, k=n)),
                    body=_body(rng, atoms, 1),
                )
            )
    p = canonicalize(Program(dialect=Dialect.CRP2, rules=tuple(rules)))
    cr_like = [r.label for r in p.nonregular_rules if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR)]
    if with_prefer and len(cr_like) >= 2 and rng.random() < 0.5:
        l1, l2 = rng.sample(cr_like, k=2)
        p = Program(dialect=p.dialect, rules=p.rules, prefer_facts=((l1, l2),))
    return p


def random_ground_program(
    rng: random.Random,
    max_atoms: int = 10,
    max_rules: int = 8,
    with_choice: bool = False,
    with_aggregates: bool = False,
) -> GroundProgram:
    atoms = [Atom(a) for a in ATOM_POOL[: rng.randint(2, max_atoms)]]
    rules = []
    lower_atoms = [a for a in atoms]  # aggregates draw on the same pool
    for _ in range(rng.randint(1, max_rules)):
        body_atoms = rng.sample(atoms, k=min(len(atoms), rng.randint(0, 3)))
        pos = frozenset(a for a in body_atoms if rng.random() < 0.5)
        neg = frozenset(a for a in body_atoms if a not in pos)
        aggs = ()
        if with_aggregates and rng.random() < 0.3 and len(atoms) >= 2:
            elems = frozenset(rng.sample(lower_atoms, k=rng.randint(1, min(3, len(atoms)))))
            lo = rng.choice((None, 0, 1))
            hi = rng.choice((None, 0, 1, 2))
            if lo is None and hi is None:
                hi = 1
            if lo is not None and hi is not None and hi < lo:
                lo, hi = hi, lo
            aggs = (CountAggregate(atoms=elems, fixed=rng.randint(0, 1), lower=lo, upper=hi),)
        roll = rng.random()
        if roll < 0.15:
            head = None
        elif with_choice and roll < 0.3 and len(atoms) >= 2:
            choice_elems = tuple(rng.sample(atoms, k=2))
            lo = rng.randint(0, 1)
            head = ChoiceHead(atoms=choice_elems, lower=lo, upper=rng.randint(lo, 2))
        else:
            head = rng.choice(atoms)
        rules.append(GroundRule(head=head, pos=pos, neg=neg, aggregates=aggs))
    return GroundProgram(rules=tuple(rules), extra_atoms=frozenset(atoms))
