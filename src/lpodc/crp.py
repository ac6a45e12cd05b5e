"""Reference semantics for consistency-restoring programs with ordered
disjunction (CR-Prolog_2).

The semantics routes through a host program: cr-rules become regular rules
guarded by appl(i), ordered heads become one guarded rule per position
with appl(choice(i,j)), and a preference closure relates applied rules.
Generalized answer sets are the answer sets of the host program extended
with a set of appl facts, over all such sets. They are computed in one
search, over the host program plus a free choice {appl(t)}. per appl atom:
no host rule has an appl head, so the choice rules form a bottom part by
the splitting set theorem (Lifschitz & Turner, ICLP 1994), and each of its
answer sets, a set of appl facts, extends to exactly the answer sets of
the host program with those facts.

A choice-position guard is part of the host program here: for an ordered
cr-rule i, appl(choice(i,j)) is inconsistent unless appl(i) holds. Without
it, answer sets that pick a position of an unapplied cr-rule would inflate
the enumeration beyond the semantics' counts. Plain ordered rules are not
guarded: a latent position choice on a rule whose body is false is a
legitimate generalized answer set (projection-equivalent to the choice-free
one) and is what lets position preferences dominate across interpretations.
The assumption programs (one per degree tuple) share their rule objects
and are solved in one `engine.answer_sets_each` call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    DEFAULT_ATOM_CAP,
    CapExceeded,
    ChoiceHead,
    GroundProgram,
    GroundRule,
    answer_sets,
    answer_sets_each,
)
from .lpod import _ground_literal_sets, regular_ground_rules
from .model import Atom, Dialect, Program, RuleKind, Term


def appl(term) -> Atom:
    return Atom("appl", (term,))


def choice_term(i: int, j: int) -> Term:
    return Term("choice", (i, j))


@dataclass(frozen=True)
class GeneralizedAnswerSet:
    """Answer set of the host program extended with chosen appl facts."""

    atoms: frozenset

    def appl_terms(self) -> frozenset:
        return frozenset(a.args[0] for a in self.atoms if a.predicate == "appl")

    def project(self, sigma: frozenset) -> frozenset:
        return frozenset(a for a in self.atoms if a in sigma)

    def sort_key(self):
        return tuple(sorted(a.sort_key() for a in self.atoms))


def _closure_terms(p: Program) -> list:
    terms = []
    for r in p.nonregular_rules:
        if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR):
            terms.append(r.index)
    for r in p.nonregular_rules:
        if r.kind in (RuleKind.ORDERED, RuleKind.ORDERED_CR):
            for j in range(1, r.head_size() + 1):
                terms.append(choice_term(r.index, j))
    return terms


def _prefer_fact_atoms(p: Program) -> list:
    label_index = p.label_index
    return [
        Atom("prefer", (label_index[l1], label_index[l2])) for l1, l2 in p.prefer_facts
    ]


def _closure_rules(terms) -> list:
    """isPreferred as the transitive closure of prefer over the terms,
    with a constraint keeping it irreflexive."""
    rules = []
    for t1 in terms:
        for t2 in terms:
            rules.append(
                GroundRule(
                    head=Atom("isPreferred", (t1, t2)),
                    pos=frozenset({Atom("prefer", (t1, t2))}),
                )
            )
            for t3 in terms:
                rules.append(
                    GroundRule(
                        head=Atom("isPreferred", (t1, t3)),
                        pos=frozenset(
                            {Atom("prefer", (t1, t2)), Atom("isPreferred", (t2, t3))}
                        ),
                    )
                )
    for t in terms:
        rules.append(GroundRule(head=None, pos=frozenset({Atom("isPreferred", (t, t))})))
    return rules


def build_hpi(p: Program) -> GroundProgram:
    """Host program over sigma plus appl/fired/prefer/isPreferred."""
    if p.dialect is not Dialect.CRP2:
        raise ValueError("the host construction is defined for the crp2 dialect")
    rules = regular_ground_rules(p)
    for r in p.nonregular_rules:
        pos, neg = _ground_literal_sets(r.body)
        if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR):
            pos = pos | {appl(r.index)}
        if r.kind is RuleKind.CR:
            rules.append(GroundRule(head=r.head_atoms[0], pos=pos, neg=neg))
            continue
        fired = Atom("fired", (r.index,))
        for j in range(1, r.head_size() + 1):
            cj = appl(choice_term(r.index, j))
            rules.append(GroundRule(head=r.head_atoms[j - 1], pos=pos | {cj}, neg=neg))
            rules.append(GroundRule(head=fired, pos=frozenset({cj})))
            if j < r.head_size():
                rules.append(
                    GroundRule(
                        head=Atom(
                            "prefer", (choice_term(r.index, j), choice_term(r.index, j + 1))
                        )
                    )
                )
            # a choice position of an unapplied cr-rule is out; plain ordered
            # rules may carry a latent choice even while their body is false
            if r.kind is RuleKind.ORDERED_CR:
                rules.append(GroundRule(head=None, pos=frozenset({cj}), neg=frozenset({appl(r.index)})))
        # one position is chosen whenever the rule participates at all: always
        # for a plain ordered rule, and upon application for an ordered
        # cr-rule. This mirrors the assumption domains 1..n and 0..n.
        if r.kind is RuleKind.ORDERED_CR:
            rules.append(GroundRule(head=None, pos=frozenset({appl(r.index)}), neg=frozenset({fired})))
        else:
            rules.append(GroundRule(head=None, neg=frozenset({fired})))
    for fact in _prefer_fact_atoms(p):
        rules.append(GroundRule(head=fact))
    terms = _closure_terms(p)
    rules.extend(_closure_rules(terms))
    for t1 in terms:
        for t2 in terms:
            rules.append(
                GroundRule(
                    head=None,
                    pos=frozenset({appl(t1), appl(t2), Atom("isPreferred", (t1, t2))}),
                )
            )
    return GroundProgram(rules=tuple(rules), extra_atoms=p.signature)


def appl_atom_space(p: Program) -> list:
    """All appl atoms that may appear in the host program."""
    return [appl(t) for t in _closure_terms(p)]


def generalized_answer_sets(p: Program, cap: int = DEFAULT_ATOM_CAP) -> tuple:
    """Union over sets A of appl atoms of the answer sets of the host
    program plus A as facts.

    Solved once, as the host program plus {appl(t)}. for every appl atom:
    the host program defines no appl atom, so this is the same union (see
    the module docstring). A set choosing two positions of one ordered
    head has no answer set: the preference chain between the positions
    and the isPreferred constraint rule it out.
    """
    hpi = build_hpi(p)
    if len(p.signature) > cap:
        raise CapExceeded(len(p.signature), cap)
    prog = GroundProgram(
        rules=hpi.rules
        + tuple(GroundRule(head=ChoiceHead(atoms=(a,))) for a in appl_atom_space(p)),
        extra_atoms=hpi.extra_atoms,
    )
    found = (GeneralizedAnswerSet(atoms=s.atoms) for s in answer_sets(prog, cap=None))
    return tuple(sorted(found, key=GeneralizedAnswerSet.sort_key))


def dominates(s1: GeneralizedAnswerSet, s2: GeneralizedAnswerSet) -> bool:
    """Some applied term of s1 is preferred to an applied term of s2,
    with the preference recorded in both."""
    shared = s1.atoms & s2.atoms
    pref_pairs = {a.args for a in shared if a.predicate == "isPreferred"}
    if not pref_pairs:
        return False
    t1s = s1.appl_terms()
    t2s = s2.appl_terms()
    return any((r1, r2) in pref_pairs for r1 in t1s for r2 in t2s)


def candidate_answer_sets(gas: tuple) -> tuple:
    """Generalized answer sets (from `generalized_answer_sets`) that no
    other one dominates."""
    return tuple(
        s for s in gas if not any(other != s and dominates(other, s) for other in gas)
    )


def preferred_answer_sets(candidates: tuple, sigma: frozenset) -> tuple:
    """Sigma-projections of candidates with minimal applied-atom sets."""
    out = []
    for s in candidates:
        s_appl = s.appl_terms()
        if not any(
            other is not s and other.appl_terms() < s_appl for other in candidates
        ):
            out.append(s.project(sigma))
    projections = sorted(set(out), key=lambda a: tuple(sorted(x.sort_key() for x in a)))
    return tuple(projections)


def crp_assumption_programs(p: Program) -> dict:
    """One ground program per assumption tuple over the per-kind domains.

    A cr-rule is dropped for x_i = 0 and becomes a plain rule for x_i = 1;
    an ordered (cr-)rule becomes its x_i-th head atom guarded by its body.
    The preference closure over rule indices plus the applicability
    constraint (two rules related by isPreferred cannot both be applied)
    are instantiated against the tuple at construction time.
    """
    if p.dialect is not Dialect.CRP2:
        raise ValueError("assumption programs here are for the crp2 dialect")
    sigma = p.signature
    cr_like = [r.index for r in p.nonregular_rules if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR)]
    base = tuple(regular_ground_rules(p))
    heads = []
    for r in p.nonregular_rules:
        pos, neg = _ground_literal_sets(r.body)
        heads.append([()] + [(GroundRule(head=a, pos=pos, neg=neg),) for a in r.head_atoms])
    closure = tuple(GroundRule(head=a) for a in _prefer_fact_atoms(p)) + tuple(_closure_rules(cr_like))
    conflict = [
        (r1, r2, GroundRule(head=None, pos=frozenset({Atom("isPreferred", (r1, r2))})))
        for r1 in cr_like
        for r2 in cr_like
    ]
    out = {}
    for xs in p.assumption_tuples():
        rules = base + sum((h[x] for h, x in zip(heads, xs)), ()) + closure
        rules += tuple(c for r1, r2, c in conflict if xs[r1 - 1] and xs[r2 - 1])
        out[xs] = GroundProgram(rules=rules, extra_atoms=sigma)
    return out


def assumption_projections(p: Program, cap: int = DEFAULT_ATOM_CAP) -> frozenset:
    """Sigma-projections of all assumption-program answer sets."""
    sigma = p.signature
    if len(sigma) > cap:
        raise CapExceeded(len(sigma), cap)
    return frozenset(
        frozenset(a for a in s.atoms if a in sigma)
        for sets in answer_sets_each(tuple(crp_assumption_programs(p).values()), cap=None)
        for s in sets
    )
