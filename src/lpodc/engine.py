"""Exhaustive-search semantics for ground standard ASP.

Supports normal rules, constraints, bounded choice rules, count aggregates
over already-instantiated elements, and weak constraints with one
optimization level. Aggregates must be stratified: no recursion through an
aggregate is supported, which holds for everything the translator emits.

Enumeration walks the binary assignment tree over the signature, pruning a
branch as soon as a constraint is definitely violated and propagating
forced values (unit constraints, unsupported atoms, cardinality bounds).
Every complete assignment that survives is independently re-verified with
the minimal-model-of-reduct check, so the search can only lose answer sets,
never invent them; a plain subset enumerator is kept for differential
testing of exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .model import AnswerSet, Atom

DEFAULT_ATOM_CAP = 24


class CapExceeded(Exception):
    def __init__(self, n_atoms: int, cap: int):
        super().__init__("program has %d atoms, cap is %d" % (n_atoms, cap))
        self.n_atoms = n_atoms
        self.cap = cap


@dataclass(frozen=True)
class ChoiceHead:
    """Bounded choice over ground atoms; violated bounds act as a constraint."""

    atoms: tuple
    lower: Optional[int] = None
    upper: Optional[int] = None


@dataclass(frozen=True)
class CountAggregate:
    """Count of true elements: fixed constant part plus true atoms among `atoms`."""

    atoms: frozenset = frozenset()
    fixed: int = 0
    lower: Optional[int] = None
    upper: Optional[int] = None

    def holds(self, interp: frozenset) -> bool:
        n = self.fixed + sum(1 for a in self.atoms if a in interp)
        if self.lower is not None and n < self.lower:
            return False
        if self.upper is not None and n > self.upper:
            return False
        return True


@dataclass(frozen=True)
class GroundRule:
    head: object = None  # Atom | ChoiceHead | None (constraint)
    pos: frozenset = frozenset()
    neg: frozenset = frozenset()
    aggregates: tuple = ()

    def body_holds(self, interp: frozenset) -> bool:
        return (
            self.pos <= interp
            and not (self.neg & interp)
            and all(agg.holds(interp) for agg in self.aggregates)
        )


@dataclass(frozen=True)
class WeakConstraint:
    pos: frozenset = frozenset()
    neg: frozenset = frozenset()
    aggregates: tuple = ()
    weight: int = 0
    terms: tuple = ()

    def body_holds(self, interp: frozenset) -> bool:
        return (
            self.pos <= interp
            and not (self.neg & interp)
            and all(agg.holds(interp) for agg in self.aggregates)
        )


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple = ()
    weak: tuple = ()
    extra_atoms: frozenset = frozenset()

    @property
    def atoms(self) -> frozenset:
        found = set(self.extra_atoms)
        for r in self.rules:
            if isinstance(r.head, Atom):
                found.add(r.head)
            elif isinstance(r.head, ChoiceHead):
                found.update(r.head.atoms)
            found.update(r.pos)
            found.update(r.neg)
            for agg in r.aggregates:
                found.update(agg.atoms)
        for w in self.weak:
            found.update(w.pos)
            found.update(w.neg)
            for agg in w.aggregates:
                found.update(agg.atoms)
        return frozenset(found)


def reduct(p: GroundProgram, interp: frozenset) -> GroundProgram:
    """Negation-free program relative to `interp`.

    Rules whose negative body intersects interp or whose aggregates are
    falsified by interp are dropped; surviving rules keep only their
    positive body. Choice heads reduce to one definite rule per chosen atom.
    """
    out = []
    for r in p.rules:
        if r.neg & interp:
            continue
        if not all(agg.holds(interp) for agg in r.aggregates):
            continue
        if isinstance(r.head, ChoiceHead):
            for a in r.head.atoms:
                if a in interp:
                    out.append(GroundRule(head=a, pos=r.pos))
        else:
            out.append(GroundRule(head=r.head, pos=r.pos))
    return GroundProgram(rules=tuple(out))


def least_model(definite_rules: Iterable[GroundRule]) -> frozenset:
    """Least model of a definite program (rules with atom heads only)."""
    rules = [r for r in definite_rules if isinstance(r.head, Atom)]
    model = set()
    changed = True
    while changed:
        changed = False
        remaining = []
        for r in rules:
            if r.pos <= model:
                if r.head not in model:
                    model.add(r.head)
                    changed = True
            else:
                remaining.append(r)
        rules = remaining
    return frozenset(model)


def is_answer_set(p: GroundProgram, interp: frozenset) -> bool:
    """Definitional check: interp is the least model of the reduct and
    satisfies all constraints and choice bounds."""
    for r in p.rules:
        if r.head is None:
            if r.body_holds(interp):
                return False
        elif isinstance(r.head, ChoiceHead):
            if r.body_holds(interp):
                n = sum(1 for a in r.head.atoms if a in interp)
                if r.head.lower is not None and n < r.head.lower:
                    return False
                if r.head.upper is not None and n > r.head.upper:
                    return False
    return least_model(reduct(p, interp).rules) == interp


def penalty_of(p: GroundProgram, interp: frozenset) -> int:
    """Total weak-constraint penalty; distinct term tuples count once each."""
    violated = {(w.weight, w.terms) for w in p.weak if w.body_holds(interp)}
    return sum(weight for weight, _terms in violated)


# --- assignment-tree search -------------------------------------------------

_TRUE, _FALSE, _UNDEC = 1, 0, -1


class _Search:
    def __init__(self, program: GroundProgram, atoms: frozenset):
        self.program = program
        choice_atoms = set()
        guess_atoms = set()
        for r in program.rules:
            if isinstance(r.head, ChoiceHead):
                choice_atoms.update(r.head.atoms)
            guess_atoms.update(r.neg)
            for agg in r.aggregates:
                guess_atoms.update(agg.atoms)
        # branch on choice elements first, then negated/aggregated atoms
        rank = {a: (0 if a in choice_atoms else 1 if a in guess_atoms else 2) for a in atoms}
        self.order = sorted(atoms, key=lambda a: (rank[a], a.sort_key()))
        self.index = {a: i for i, a in enumerate(self.order)}
        self.n = len(self.order)
        self.all_mask = (1 << self.n) - 1

        def mask(items) -> int:
            m = 0
            for a in items:
                m |= 1 << self.index[a]
            return m

        self.rules = []
        head_rules = [[] for _ in range(self.n)]
        for r in program.rules:
            aggs = tuple(
                (agg.lower, agg.upper, mask(agg.atoms), agg.fixed) for agg in r.aggregates
            )
            if isinstance(r.head, ChoiceHead):
                head = ("choice", r.head.lower, r.head.upper, mask(r.head.atoms))
                targets = [self.index[a] for a in r.head.atoms]
            elif isinstance(r.head, Atom):
                head = ("atom", self.index[r.head])
                targets = [self.index[r.head]]
            else:
                head = ("none",)
                targets = []
            idx = len(self.rules)
            self.rules.append((head, mask(r.pos), mask(r.neg), aggs))
            for t in targets:
                head_rules[t].append(idx)
        self.head_rules = head_rules

    def _body_state(self, rule, t: int, f: int) -> int:
        _head, pos, neg, aggs = rule
        if pos & f or neg & t:
            return _FALSE
        definite = (pos & t) == pos and (neg & f) == neg
        for lower, upper, elem, fixed in aggs:
            lo_cnt = fixed + (elem & t).bit_count()
            hi_cnt = fixed + (elem & ~f).bit_count()
            if (lower is not None and hi_cnt < lower) or (upper is not None and lo_cnt > upper):
                return _FALSE
            if not ((lower is None or lo_cnt >= lower) and (upper is None or hi_cnt <= upper)):
                definite = False
        return _TRUE if definite else _UNDEC

    def _propagate(self, t: int, f: int):
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                head, pos, neg, aggs = rule
                state = self._body_state(rule, t, f)
                if head[0] == "none":
                    if state == _TRUE:
                        return None
                    if state == _UNDEC and not aggs:
                        # unit constraint: one undecided literal left
                        pos_open = pos & ~t
                        neg_open = neg & ~f
                        open_bits = pos_open | neg_open
                        if open_bits.bit_count() == 1:
                            if pos_open:
                                f |= pos_open
                            else:
                                t |= neg_open
                            changed = True
                elif head[0] == "atom":
                    if state == _TRUE and not (t >> head[1]) & 1:
                        if (f >> head[1]) & 1:
                            return None
                        t |= 1 << head[1]
                        changed = True
                elif state == _TRUE:
                    _tag, lower, upper, elem = head
                    n_true = (elem & t).bit_count()
                    open_elem = elem & ~t & ~f
                    possible = n_true + open_elem.bit_count()
                    if upper is not None and n_true > upper:
                        return None
                    if lower is not None and possible < lower:
                        return None
                    if open_elem:
                        if lower is not None and possible == lower:
                            t |= open_elem
                            changed = True
                        elif upper is not None and n_true == upper:
                            f |= open_elem
                            changed = True
            # an atom with no potentially applicable defining rule is false
            open_or_true = ~f & self.all_mask
            bits = open_or_true
            while bits:
                low = bits & -bits
                bits ^= low
                i = low.bit_length() - 1
                supported = False
                for ridx in self.head_rules[i]:
                    if self._body_state(self.rules[ridx], t, f) != _FALSE:
                        supported = True
                        break
                if not supported:
                    if (t >> i) & 1:
                        return None
                    f |= low
                    changed = True
        return t, f

    def run(self):
        program = self.program
        order = self.order
        stack = [(0, 0)]
        while stack:
            t, f = stack.pop()
            result = self._propagate(t, f)
            if result is None:
                continue
            t, f = result
            open_bits = ~(t | f) & self.all_mask
            if not open_bits:
                interp = frozenset(
                    order[i] for i in range(self.n) if (t >> i) & 1
                )
                if is_answer_set(program, interp):
                    yield interp
                continue
            low = open_bits & -open_bits
            i = low.bit_length() - 1
            stack.append((t, f | (1 << i)))
            stack.append((t | (1 << i), f))


def answer_sets(p: GroundProgram, cap: Optional[int] = DEFAULT_ATOM_CAP) -> tuple:
    """All answer sets, sorted for determinism; penalties unset. A cap of
    None searches programs of any size."""
    atoms = p.atoms
    if cap is not None and len(atoms) > cap:
        raise CapExceeded(len(atoms), cap)
    found = set(_Search(p, atoms).run())
    return tuple(sorted((AnswerSet(atoms=s) for s in found), key=AnswerSet.sort_key))


def brute_force_answer_sets(p: GroundProgram, cap: int = 16) -> tuple:
    """Plain subset enumeration; the check against the search engine."""
    atoms = sorted(p.atoms, key=Atom.sort_key)
    if len(atoms) > cap:
        raise CapExceeded(len(atoms), cap)
    found = []
    for k in range(len(atoms) + 1):
        for combo in combinations(atoms, k):
            interp = frozenset(combo)
            if is_answer_set(p, interp):
                found.append(AnswerSet(atoms=interp))
    return tuple(sorted(found, key=AnswerSet.sort_key))


def optimal_answer_sets(p: GroundProgram, cap: Optional[int] = DEFAULT_ATOM_CAP) -> tuple:
    """Minimum-penalty answer sets, each annotated with its total penalty."""
    sets = answer_sets(p, cap=cap)
    if not sets:
        return ()
    scored = [AnswerSet(atoms=s.atoms, penalty=penalty_of(p, s.atoms)) for s in sets]
    best = min(s.penalty for s in scored)
    return tuple(s for s in scored if s.penalty == best)
