"""Shared data model: atoms, rules, programs, answer sets, validation.

Everything here is immutable after construction and safe to share across
threads. Atoms are propositional: constant arguments like hotel(1) are part
of the symbol, not terms to unify. The only compound arguments are the
internal function terms (choice(r,j), ap(x1,...,xm)) produced by the
semantics and translation layers, never by the input language.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Optional, Union

IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
BODY_AUX_RE = re.compile(r"body_[0-9]+\Z")

# Predicates the compilation layers introduce; user programs must not use them.
RESERVED_PREDICATES = frozenset(
    {
        "ap",
        "degree",
        "prf",
        "pAS",
        "card",
        "equ2degree",
        "prf2degree",
        "even",
        "equ",
        "sum",
        "appl",
        "fired",
        "choice",
        "isPreferred",
        "dominate",
        "candidate",
        "lessCrRulesApplied",
    }
)


@dataclass(frozen=True, order=True)
class Term:
    """Compound ground term such as choice(2,1) or ap(0,2)."""

    functor: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return "%s(%s)" % (self.functor, ",".join(str(a) for a in self.args))


Arg = Union[int, str, Term]


def _arg_key(a: Arg):
    if isinstance(a, int):
        return (0, a, "")
    if isinstance(a, str):
        return (1, 0, a)
    return (2, 0, str(a))


@dataclass(frozen=True)
class Atom:
    """Ground atom; the whole thing is one propositional symbol."""

    predicate: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ",".join(str(a) for a in self.args))

    def sort_key(self):
        return (self.predicate, len(self.args), tuple(_arg_key(a) for a in self.args))


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return ("not " if self.negated else "") + str(self.atom)


class RuleKind(Enum):
    REGULAR = "regular"
    ORDERED = "ordered"
    CR = "cr"
    ORDERED_CR = "ordered_cr"


class Dialect(Enum):
    LPOD = "lpod"
    CRP2 = "crp2"


@dataclass(frozen=True)
class Rule:
    """One statement of a source program.

    head_atoms holds the single head atom (regular/cr), the ordered
    disjuncts in preference order, the choice elements (with choice_bounds
    set), or nothing for a constraint. index is assigned by canonicalize and
    is meaningful for non-regular rules only.
    """

    kind: RuleKind
    head_atoms: tuple = ()
    body: tuple = ()
    choice_bounds: Optional[tuple] = None  # (lower, upper) for choice heads
    label: Optional[str] = None
    index: Optional[int] = None

    @property
    def is_constraint(self) -> bool:
        return self.kind is RuleKind.REGULAR and not self.head_atoms

    @property
    def is_choice(self) -> bool:
        return self.choice_bounds is not None

    def head_size(self) -> int:
        return len(self.head_atoms)


@dataclass(frozen=True)
class Program:
    dialect: Dialect
    rules: tuple = ()
    prefer_facts: tuple = ()  # pairs of rule labels, CRP2 only

    def atoms(self) -> dict:
        """Each atom of the rules once, as keys in order of first occurrence.
        The parser interns atoms, so repeats are dropped by identity before
        an atom is hashed by value."""
        seen = {}
        for r in self.rules:
            for a in r.head_atoms:
                seen[id(a)] = a
            for lit in r.body:
                seen[id(lit.atom)] = lit.atom
        return dict.fromkeys(seen.values())

    @property
    def signature(self) -> frozenset:
        """All atoms occurring in the rules (the sigma of the program)."""
        return frozenset(self.atoms())

    @property
    def regular_rules(self) -> tuple:
        return tuple(r for r in self.rules if r.kind is RuleKind.REGULAR)

    @property
    def nonregular_rules(self) -> tuple:
        """Indexed rules, in index order once canonicalized."""
        rules = [r for r in self.rules if r.kind is not RuleKind.REGULAR]
        if all(r.index is not None for r in rules):
            rules.sort(key=lambda r: r.index)
        return tuple(rules)

    @property
    def label_index(self) -> dict:
        return {r.label: r.index for r in self.rules if r.label is not None}

    def assumption_domains(self) -> tuple:
        """Per-index ranges of assumption degrees x_i.

        LPOD: 0..n_i for every ordered rule. CRP2: {0,1} for cr-rules,
        0..n_i for ordered cr-rules, 1..n_i for ordered rules.
        """
        domains = []
        for r in self.nonregular_rules:
            n = r.head_size()
            if r.kind is RuleKind.ORDERED:
                lo = 0 if self.dialect is Dialect.LPOD else 1
                domains.append(tuple(range(lo, n + 1)))
            elif r.kind is RuleKind.CR:
                domains.append((0, 1))
            else:  # ordered cr
                domains.append(tuple(range(0, n + 1)))
        return tuple(domains)

    def assumption_tuples(self) -> tuple:
        return tuple(product(*self.assumption_domains()))


@dataclass(frozen=True)
class AnswerSet:
    """Set of ground atoms, optionally carrying a weak-constraint penalty."""

    atoms: frozenset
    penalty: Optional[int] = None

    def sort_key(self):
        return tuple(sorted(a.sort_key() for a in self.atoms))

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in sorted(self.atoms, key=Atom.sort_key))
        return "{%s}" % inner


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join("%s: %s" % (v.code, v.message) for v in self.violations)


def satisfies(atoms: frozenset, body: Iterable[Literal]) -> bool:
    """Classical satisfaction of a conjunctive body by a set of atoms."""
    for lit in body:
        if (lit.atom in atoms) == lit.negated:
            return False
    return True


def _reserved(predicate: str, arity: int, dialect: Dialect) -> Optional[str]:
    if predicate == "prefer":
        # prefer facts never reach here: they are kept in Program.prefer_facts
        if arity != 2:
            return "prefer with arity %d" % arity
        return "prefer outside a fact" if dialect is Dialect.CRP2 else "prefer"
    if predicate in RESERVED_PREDICATES or BODY_AUX_RE.match(predicate):
        return predicate
    return None


def validate_program(p: Program) -> ValidationReport:
    """Well-formedness report; empty report means the program is valid."""
    out = []

    def bad(code: str, msg: str) -> None:
        out.append(Violation(code, msg))

    seen_labels = set()
    cr_like_labels = set()
    for r in p.rules:
        if r.label is not None:
            if r.label in seen_labels:
                bad("duplicate-label", "label %s used more than once" % r.label)
            seen_labels.add(r.label)
            if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR):
                cr_like_labels.add(r.label)
        if r.kind in (RuleKind.ORDERED, RuleKind.ORDERED_CR) and r.head_size() < 2:
            bad("ordered-head-too-small", "ordered head needs at least 2 atoms, got %d" % r.head_size())
        if r.is_choice:
            lo, up = r.choice_bounds
            if lo < 0 or up < 0:
                bad("negative-choice-bound", "choice bounds must not be negative, got %d..%d" % (lo, up))
            elif lo > up:
                bad("empty-choice-bounds", "choice lower bound %d exceeds upper bound %d" % (lo, up))
        if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR) and p.dialect is not Dialect.CRP2:
            bad("cr-rule-dialect", "cr-rules are only allowed in the crp2 dialect")
    for atom in p.atoms():
        hit = _reserved(atom.predicate, len(atom.args), p.dialect)
        if hit:
            bad("reserved-predicate", "reserved predicate %s" % hit)
        if not IDENT_RE.match(atom.predicate):
            bad("bad-predicate", "predicate %r is not a valid identifier" % atom.predicate)
        for arg in atom.args:
            if isinstance(arg, str) and not IDENT_RE.match(arg):
                # ASP would read it as a variable, not a constant
                bad("bad-constant", "argument %r of %s is not a valid constant" % (arg, atom))
        if p.dialect is Dialect.LPOD and "maxdegree" in atom.args:
            # the criterion layers declare #const maxdegree, which would rename it
            bad("reserved-constant", "constant maxdegree is reserved in lpod programs: %s" % atom)
    if p.prefer_facts and p.dialect is not Dialect.CRP2:
        bad("prefer-dialect", "prefer facts are only allowed in the crp2 dialect")
    preferred_to: dict = {}
    for l1, l2 in p.prefer_facts:
        for lab in (l1, l2):
            if lab not in cr_like_labels:
                bad("unknown-label", "unknown label %s" % lab)
        if _reaches(preferred_to, l2, l1):
            bad("prefer-cycle", "prefer(%s,%s) closes a preference cycle" % (l1, l2))
        preferred_to.setdefault(l1, set()).add(l2)
    return ValidationReport(tuple(out))


def _reaches(edges: dict, start, goal) -> bool:
    """Whether goal is start or lies on a path of edges from start."""
    seen, todo = {start}, [start]
    while todo:
        node = todo.pop()
        if node == goal:
            return True
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


def canonicalize(p: Program) -> Program:
    """Reindex non-regular rules and auto-label unlabeled ones.

    LPOD: ordered rules get 1..m in textual order. CRP2: cr-rules first
    (1..k), then ordered cr-rules (k+1..l), then ordered rules (l+1..m),
    keeping the textual order inside each class. Idempotent.
    """
    if p.dialect is Dialect.LPOD:
        order = {RuleKind.ORDERED: 0}
    else:
        order = {RuleKind.CR: 0, RuleKind.ORDERED_CR: 1, RuleKind.ORDERED: 2}
    # positions in p.rules, not the rules: one Rule may occur twice
    indexed = [k for k, r in enumerate(p.rules) if r.kind in order]
    indexed.sort(key=lambda k: order[p.rules[k].kind])  # stable: textual order kept per class
    taken = {r.label for r in p.rules if r.label is not None}
    assignments = {}
    for i, k in enumerate(indexed, start=1):
        label = p.rules[k].label
        if label is None:
            label = "r%d" % i
            while label in taken:
                label += "_"
            taken.add(label)
        assignments[k] = (i, label)
    new_rules = []
    for k, r in enumerate(p.rules):
        if k in assignments:
            i, label = assignments[k]
            new_rules.append(
                Rule(
                    kind=r.kind,
                    head_atoms=r.head_atoms,
                    body=r.body,
                    choice_bounds=r.choice_bounds,
                    label=label,
                    index=i,
                )
            )
        else:
            new_rules.append(r)
    return Program(dialect=p.dialect, rules=tuple(new_rules), prefer_facts=p.prefer_facts)
