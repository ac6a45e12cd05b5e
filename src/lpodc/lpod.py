"""Reference semantics for logic programs with ordered disjunction.

Candidate answer sets are generated two ways: from split programs (every
ordered rule replaced by one of its options) and from assumption programs
(every ordered rule replaced by a rule block that pins which head atom is
the first true one). The two generators must agree on the original
signature; the assumption route additionally names each candidate with the
tuple that produced it, from which satisfaction degrees follow directly.
Each generator shares one copy of its regular part and of each option or
block across its programs and solves them in one `engine.answer_sets_each`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

from .engine import (
    DEFAULT_ATOM_CAP,
    CapExceeded,
    ChoiceHead,
    GroundProgram,
    GroundRule,
    answer_sets_each,
)
from .model import Atom, Dialect, Program, Rule, RuleKind, satisfies


class Criterion(Enum):
    CARDINALITY = "cardinality"
    INCLUSION = "inclusion"
    PARETO = "pareto"
    PENALTY_SUM = "penalty-sum"


class Comparison(Enum):
    FIRST_PREFERRED = 1
    SECOND_PREFERRED = 2
    NEITHER = 0


@dataclass(frozen=True)
class CandidateAnswerSet:
    atoms: frozenset
    degrees: tuple
    assumption: tuple

    def sort_key(self):
        return (self.assumption, tuple(sorted(a.sort_key() for a in self.atoms)))


def _ground_literal_sets(body):
    pos = frozenset(l.atom for l in body if not l.negated)
    neg = frozenset(l.atom for l in body if l.negated)
    return pos, neg


def regular_ground_rules(p: Program) -> list:
    """The regular part as engine rules (normal, constraint, choice)."""
    out = []
    for r in p.regular_rules:
        pos, neg = _ground_literal_sets(r.body)
        if r.is_choice:
            lo, up = r.choice_bounds
            head = ChoiceHead(atoms=r.head_atoms, lower=lo, upper=up)
        elif r.head_atoms:
            head = r.head_atoms[0]
        else:
            head = None
        out.append(GroundRule(head=head, pos=pos, neg=neg))
    return out


def option(r: Rule, i: int) -> GroundRule:
    """The i-th option: head atom i guarded by the earlier atoms being out."""
    if r.kind is not RuleKind.ORDERED:
        raise ValueError("options are defined for ordered rules")
    if not 1 <= i <= r.head_size():
        raise IndexError("option index %d out of range 1..%d" % (i, r.head_size()))
    pos, neg = _ground_literal_sets(r.body)
    neg = neg | frozenset(r.head_atoms[: i - 1])
    return GroundRule(head=r.head_atoms[i - 1], pos=pos, neg=neg)


def split_programs(p: Program) -> list:
    """All option combinations, regular part kept verbatim."""
    if p.dialect is not Dialect.LPOD:
        raise ValueError("split programs are defined for the lpod dialect")
    base, sigma = tuple(regular_ground_rules(p)), p.signature
    options = [[option(r, k) for k in range(1, r.head_size() + 1)] for r in p.nonregular_rules]
    return [GroundProgram(rules=base + combo, extra_atoms=sigma) for combo in product(*options)]


def assumption(r: Rule, x: int) -> tuple:
    """Rule block pinning ordered rule r's first true head atom to position x.

    x = 0 asserts the body is false; x > 0 asserts the body is true, head
    atom x is derived, and no earlier head atom is the first true one.
    """
    if r.kind is not RuleKind.ORDERED:
        raise ValueError("assumptions are defined for ordered rules")
    n = r.head_size()
    if not 0 <= x <= n:
        raise IndexError("assumption degree %d out of range 0..%d" % (x, n))
    aux = Atom("body_%d" % r.index)
    pos, neg = _ground_literal_sets(r.body)
    rules = [GroundRule(head=aux, pos=pos, neg=neg)]
    if x == 0:
        rules.append(GroundRule(head=None, pos=frozenset({aux})))
    else:
        rules.append(GroundRule(head=None, neg=frozenset({aux})))
        rules.append(GroundRule(head=r.head_atoms[x - 1], pos=frozenset({aux})))
    for j in range(1, n + 1):
        if j == x:
            continue
        rules.append(
            GroundRule(
                head=None,
                pos=frozenset({aux, r.head_atoms[j - 1]}),
                neg=frozenset(r.head_atoms[: j - 1]),
            )
        )
    return tuple(rules)


def assumption_programs(p: Program) -> dict:
    """One program per assumption tuple: the regular part plus `assumption(r, x_i)` per ordered rule r."""
    base, sigma = tuple(regular_ground_rules(p)), p.signature
    blocks = [[assumption(r, x) for x in range(r.head_size() + 1)] for r in p.nonregular_rules]
    return {
        xs: GroundProgram(rules=base + sum((b[x] for b, x in zip(blocks, xs)), ()), extra_atoms=sigma)
        for xs in p.assumption_tuples()
    }


def degrees_from_assumption(xs: tuple) -> tuple:
    """x_i = 0 means the body was false, satisfied to degree 1."""
    return tuple(1 if x == 0 else x for x in xs)


def degrees_from_atoms(p: Program, atoms: frozenset) -> tuple:
    degs = []
    for r in p.nonregular_rules:
        if not satisfies(atoms, r.body):
            degs.append(1)
        else:
            degs.append(min(k for k, a in enumerate(r.head_atoms, start=1) if a in atoms))
    return tuple(degs)


def assumption_candidates(p: Program, cap: int = DEFAULT_ATOM_CAP) -> tuple:
    """Candidates named by their assumption tuple, degrees attached.

    The cap bounds the original signature; each assumption program adds
    one body atom per ordered rule on top of it.
    """
    if p.dialect is not Dialect.LPOD:
        raise ValueError("assumption candidates are defined for the lpod dialect")
    sigma = p.signature
    if len(sigma) > cap:
        raise CapExceeded(len(sigma), cap)
    m = len(p.nonregular_rules)
    programs = assumption_programs(p)
    found = {}
    for xs, sets in zip(programs, answer_sets_each(tuple(programs.values()), cap=cap + m)):
        for s in sets:
            atoms = frozenset(a for a in s.atoms if a in sigma)
            degs = degrees_from_assumption(xs)
            assert degs == degrees_from_atoms(p, atoms), "degree bookkeeping diverged"
            found[(atoms, xs)] = CandidateAnswerSet(atoms=atoms, degrees=degs, assumption=xs)
    return tuple(sorted(found.values(), key=CandidateAnswerSet.sort_key))


def split_candidate_projections(p: Program, cap: int = DEFAULT_ATOM_CAP) -> frozenset:
    """Sigma-projections of all split-program answer sets."""
    sigma = p.signature
    return frozenset(
        frozenset(a for a in s.atoms if a in sigma)
        for sets in answer_sets_each(split_programs(p), cap=cap)
        for s in sets
    )


def _degree_index_sets(c: CandidateAnswerSet, degree: int) -> frozenset:
    return frozenset(i for i, d in enumerate(c.degrees, start=1) if d == degree)


def compare(s1: CandidateAnswerSet, s2: CandidateAnswerSet, criterion: Criterion) -> Comparison:
    """Relational outcome of one preference criterion on two candidates."""

    def beats(a: CandidateAnswerSet, b: CandidateAnswerSet) -> bool:
        maxdeg = max(a.degrees + b.degrees, default=0)
        if criterion is Criterion.CARDINALITY:
            for i in range(1, maxdeg + 1):
                ca = sum(1 for d in a.degrees if d == i)
                cb = sum(1 for d in b.degrees if d == i)
                if ca != cb:
                    return ca > cb
            return False
        if criterion is Criterion.INCLUSION:
            for i in range(1, maxdeg + 1):
                sa = _degree_index_sets(a, i)
                sb = _degree_index_sets(b, i)
                if sa != sb:
                    return sb < sa
            return False
        if criterion is Criterion.PARETO:
            return a.degrees != b.degrees and all(
                da <= db for da, db in zip(a.degrees, b.degrees)
            )
        return sum(a.degrees) < sum(b.degrees)

    if beats(s1, s2):
        return Comparison.FIRST_PREFERRED
    if beats(s2, s1):
        return Comparison.SECOND_PREFERRED
    return Comparison.NEITHER


def preferred(candidates: tuple, criterion: Criterion) -> tuple:
    """Candidates (from `assumption_candidates`) that no other candidate
    beats under the criterion."""
    out = []
    for c in candidates:
        if not any(
            compare(other, c, criterion) is Comparison.FIRST_PREFERRED
            for other in candidates
        ):
            out.append(c)
    return tuple(out)
