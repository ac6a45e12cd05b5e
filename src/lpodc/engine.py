"""Exhaustive-search semantics for ground standard ASP.

Supports normal rules, constraints, bounded choice rules, count aggregates
over already-instantiated elements, and weak constraints with one
optimization level. Aggregates must be stratified: no recursion through an
aggregate is supported, which holds for everything the translator emits.

The search core works on rows over atoms 0..n-1, every atom set a bit
mask: a row is (head, pos, neg, aggs), head being None (constraint), the
head atom's bit, or (elements, lower, upper) for a bounded choice, and
aggs one (lower, upper, elements, fixed) per count aggregate.
`rows_of` is the one row compiler, given the mask of each atom:
`answer_sets_each` compiles a family of `GroundProgram`s through it over
one atom order, each distinct rule once (`answer_sets` is the family of
one), and the evaluator its per-tuple templates over the atom ids it
assigns, searched with the assumption atom seeded true. The search walks
the binary assignment tree over a pair of masks (true, false), pruning a
branch once a constraint is definitely violated and propagating forced
values (unit constraints, unsupported atoms, cardinality bounds). Every
complete assignment that survives is re-verified on masks (`is_stable`:
constraints, choice bounds, least model of the reduct), so the search can
only lose answer sets, never invent them; the object-level
`is_answer_set`, `reduct` and a plain subset enumerator are kept for
differential testing of exactly that.
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

    body_holds = GroundRule.body_holds


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


# --- assignment-tree search over rows ------------------------------------------


def _aggs_state(aggs, t: int, f: int):
    """None if some aggregate is false under (t, f), True if all hold
    whatever the open atoms become, False otherwise. Under a complete
    interpretation (t, ~t) it is True exactly when all hold."""
    definite = True
    for lower, upper, elem, fixed in aggs:
        lo_cnt = fixed + (elem & t).bit_count()
        hi_cnt = fixed + (elem & ~f).bit_count()
        if (lower is not None and hi_cnt < lower) or (upper is not None and lo_cnt > upper):
            return None
        if not ((lower is None or lo_cnt >= lower) and (upper is None or hi_cnt <= upper)):
            definite = False
    return definite


def _propagate(rows, full: int, t: int, f: int):
    """Close (t, f) under the rows: a constraint with one open literal left
    falsifies it, a rule with a true body makes its head true, a choice with
    a true body at a bound decides its open elements, and an atom that no
    row with a body not yet false can derive is false. None on a conflict."""
    while True:
        t0, f0 = t, f
        supported = 0
        for head, pos, neg, aggs in rows:
            if pos & f or neg & t:
                continue
            definite = pos & t == pos and neg & f == neg
            if aggs:
                state = _aggs_state(aggs, t, f)
                if state is None:
                    continue
                definite = definite and state
            if head is None:
                if definite:
                    return None
                if not aggs:
                    pos_open = pos & ~t
                    open_bits = pos_open | (neg & ~f)
                    if not open_bits & (open_bits - 1):
                        if pos_open:
                            f |= open_bits
                        else:
                            t |= open_bits
            elif type(head) is int:
                supported |= head
                if definite and not head & t:
                    if head & f:
                        return None
                    t |= head
            else:
                elem, lower, upper = head
                supported |= elem
                if definite:
                    n_true = (elem & t).bit_count()
                    open_elem = elem & ~(t | f)
                    possible = n_true + open_elem.bit_count()
                    if upper is not None and n_true > upper or lower is not None and possible < lower:
                        return None
                    if open_elem:
                        if lower is not None and possible == lower:
                            t |= open_elem
                        elif upper is not None and n_true == upper:
                            f |= open_elem
        unsupported = full & ~(f | supported)
        if unsupported & t:
            return None
        f |= unsupported
        if t == t0 and f == f0:
            return t, f


def is_stable(rows, interp: int) -> bool:
    """Leaf check on masks: `interp` violates no constraint or choice bound
    and is the least model of the reduct of the rows relative to it."""
    definite = []
    for head, pos, neg, aggs in rows:
        if neg & interp or (aggs and not _aggs_state(aggs, interp, ~interp)):
            continue
        body = pos & interp == pos
        if head is None:
            if body:
                return False
        elif type(head) is int:
            definite.append((head, pos))
        else:
            elem, lower, upper = head
            chosen = elem & interp
            n = chosen.bit_count()
            if body and (lower is not None and n < lower or upper is not None and n > upper):
                return False
            if chosen:
                definite.append((chosen, pos))
    model, changed = 0, True
    while changed:
        changed = False
        for head, pos in definite:
            if pos & model == pos and head & ~model:
                model |= head
                changed = True
    return model == interp


def solve_rows(rows, n: int, t: int, f: int):
    """Yield the true mask of every answer set of the rows over atoms
    0..n-1 that extends the seed (t, f). Branches on the lowest open atom,
    true first; every leaf is re-verified by `is_stable`."""
    full = (1 << n) - 1
    stack = [(t, f)]
    while stack:
        t, f = stack.pop()
        result = _propagate(rows, full, t, f)
        if result is None:
            continue
        t, f = result
        open_bits = full & ~(t | f)
        if not open_bits:
            if is_stable(rows, t):
                yield t
            continue
        low = open_bits & -open_bits
        stack.append((t, f | low))
        stack.append((t | low, f))


def _branch_order(p: GroundProgram, atoms: frozenset) -> list:
    """Choice elements first, then negated or aggregated atoms, then the
    rest, each group in `Atom.sort_key` order."""
    choice_atoms, guess_atoms = set(), set()
    for r in p.rules:
        if isinstance(r.head, ChoiceHead):
            choice_atoms.update(r.head.atoms)
        guess_atoms.update(r.neg)
        for agg in r.aggregates:
            guess_atoms.update(agg.atoms)
    rank = {a: (0 if a in choice_atoms else 1 if a in guess_atoms else 2) for a in atoms}
    return sorted(atoms, key=lambda a: (rank[a], a.sort_key()))


def mask_of(bit, keys) -> int:
    """The union of bit(k) over `keys`."""
    m = 0
    for k in keys:
        m |= bit(k)
    return m


def rows_of(rules, bit) -> list:
    """The ground rules `rules` as rows, with bit(atom) the mask of each
    atom; a rule's body atoms are asked for before its head."""
    rows = []
    for r in rules:
        pos, neg = mask_of(bit, r.pos), mask_of(bit, r.neg)
        aggs = tuple((g.lower, g.upper, mask_of(bit, g.atoms), g.fixed) for g in r.aggregates)
        if isinstance(r.head, ChoiceHead):
            head = (mask_of(bit, r.head.atoms), r.head.lower, r.head.upper)
        else:
            head = None if r.head is None else bit(r.head)
        rows.append((head, pos, neg, aggs))
    return rows


def answer_sets_each(programs, cap: Optional[int] = DEFAULT_ATOM_CAP) -> list:
    """The answer sets of each program, as `answer_sets` gives them, searched
    over one atom order of the union of their atoms (which the cap bounds).
    Each distinct rule object is compiled to a row once. An atom that a
    program does not mention is false in its answer sets as unsupported."""
    rules = tuple({id(r): r for p in programs for r in p.rules}.values())
    extra = frozenset().union(*(p.extra_atoms for p in programs))
    union = GroundProgram(rules=rules, weak=tuple(w for p in programs for w in p.weak), extra_atoms=extra)
    atoms = union.atoms
    if cap is not None and len(atoms) > cap:
        raise CapExceeded(len(atoms), cap)
    order = _branch_order(union, atoms)
    bit = {a: 1 << i for i, a in enumerate(order)}
    row = dict(zip(map(id, rules), rows_of(rules, bit.__getitem__)))

    def decode(t):
        return AnswerSet(atoms=frozenset(a for i, a in enumerate(order) if t >> i & 1))

    solved = (solve_rows([row[id(r)] for r in p.rules], len(order), 0, 0) for p in programs)
    return [tuple(sorted(map(decode, ts), key=AnswerSet.sort_key)) for ts in solved]


def answer_sets(p: GroundProgram, cap: Optional[int] = DEFAULT_ATOM_CAP) -> tuple:
    """All answer sets, sorted for determinism; penalties unset. A cap of
    None searches programs of any size."""
    return answer_sets_each((p,), cap)[0]


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
