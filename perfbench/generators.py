"""Seeded program generators for the benchmark workloads.

They live here, not in ``lpodc.randgen``, so that changes to the library's
own generators never shift a benchmark workload. Each generator takes a
``random.Random`` and returns program text, which lpodc then parses like any
user input. The shape of each program (how many ordered or cr-rules, how
long their heads are, how many regular rules) is passed in by the caller;
the seed decides everything else.
"""

from __future__ import annotations

import random

SMALL_ATOMS = ("a", "b", "c", "d")
CRITERIA = ("cardinality", "inclusion", "pareto", "penalty-sum")

# Predicate pool for the large compile programs: q0..q29, with arity i % 3.
BIG_PREDICATES = tuple("q%d" % i for i in range(30))


def _body(rng: random.Random, atoms, max_len: int) -> list:
    picks = rng.sample(atoms, k=min(len(atoms), rng.randint(0, max_len)))
    return [("not " if rng.random() < 0.5 else "") + a for a in picks]


def _rule(head: str, body: list, arrow: str = ":-") -> str:
    if body:
        return "%s %s %s." % (head, arrow, ", ".join(body))
    return head + (" :+." if arrow == ":+" else ".")


def small_lpod(rng: random.Random, heads: tuple) -> str:
    """An LPOD program shaped like the randomized LPOD acceptance suite: at
    most four atoms, up to three regular rules (constraints, bounded choice
    rules, normal rules) and one ordered rule per entry of ``heads``."""
    atoms = list(SMALL_ATOMS[: rng.randint(max(2, max(heads)), len(SMALL_ATOMS))])
    lines = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.2:
            lines.append(":- %s." % ", ".join(_body(rng, atoms, 2) or [rng.choice(atoms)]))
        elif roll < 0.35:
            lo = rng.randint(0, 1)
            hi = rng.randint(max(lo, 1), 2)
            elems = "; ".join(rng.sample(atoms, k=2))
            lines.append(_rule("%d {%s} %d" % (lo, elems, hi), _body(rng, atoms, 1)))
        else:
            lines.append(_rule(rng.choice(atoms), _body(rng, atoms, 2)))
    for n in heads:
        lines.append(_rule(" * ".join(rng.sample(atoms, k=n)), _body(rng, atoms, 2)))
    return "\n".join(lines) + "\n"


def small_crp(rng: random.Random, n_cr: int, ordered_cr: int, ordered: int, prefer: bool) -> str:
    """A CR-Prolog2 program shaped like the randomized CR-Prolog2 acceptance
    suite: one to three regular rules, ``n_cr`` cr-rules, an ordered cr-rule
    with ``ordered_cr`` heads and an ordered rule with ``ordered`` heads (0
    means none), and a ``prefer`` fact between two cr-rules when ``prefer``
    is set and there are two to relate."""
    atoms = list(SMALL_ATOMS[: rng.randint(max(2, ordered_cr, ordered), len(SMALL_ATOMS))])
    lines = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            lines.append(":- %s." % ", ".join(_body(rng, atoms, 2) or [rng.choice(atoms)]))
        else:
            lines.append(_rule(rng.choice(atoms), _body(rng, atoms, 2)))
    labels = []
    for _ in range(n_cr):
        labels.append("c%d" % len(labels))
        lines.append(labels[-1] + ": " + _rule(rng.choice(atoms), _body(rng, atoms, 1), ":+"))
    if ordered_cr:
        labels.append("c%d" % len(labels))
        head = " * ".join(rng.sample(atoms, k=ordered_cr))
        lines.append(labels[-1] + ": " + _rule(head, _body(rng, atoms, 1), ":+"))
    if ordered:
        lines.append(_rule(" * ".join(rng.sample(atoms, k=ordered)), _body(rng, atoms, 1)))
    if prefer and len(labels) >= 2:
        lines.append("prefer(%s,%s)." % tuple(rng.sample(labels, k=2)))
    return "\n".join(lines) + "\n"


def chain(rng: random.Random, m: int, n_long: int) -> str:
    """The chain family: ``a_i * b_i [* c_i] :- not d_i.`` for i = 1..m plus
    ``:- a_i, a_{i+1}.``; the seed picks which ``n_long`` of the m ordered
    rules get the third head atom."""
    long_rules = set(rng.sample(range(1, m + 1), k=n_long))
    lines = []
    for i in range(1, m + 1):
        heads = ["a%d" % i, "b%d" % i] + (["c%d" % i] if i in long_rules else [])
        lines.append("%s :- not d%d." % (" * ".join(heads), i))
    lines.extend(":- a%d, a%d." % (i, i + 1) for i in range(1, m))
    return "\n".join(lines) + "\n"


def _big_atom(rng: random.Random) -> str:
    pred = rng.choice(BIG_PREDICATES)
    arity = int(pred[1:]) % 3
    if not arity:
        return pred
    return "%s(%s)" % (pred, ",".join(str(rng.randint(1, 6)) for _ in range(arity)))


def _big_body(rng: random.Random, max_len: int) -> list:
    return [
        ("not " if rng.random() < 0.4 else "") + _big_atom(rng)
        for _ in range(rng.randint(0, max_len))
    ]


def _distinct_atoms(rng: random.Random, n: int) -> list:
    out = []
    while len(out) < n:
        a = _big_atom(rng)
        if a not in out:
            out.append(a)
    return out


def _big_regular(rng: random.Random, n_regular: int) -> list:
    lines = []
    for _ in range(n_regular):
        roll = rng.random()
        if roll < 0.1:
            lines.append(":- %s." % ", ".join(_big_body(rng, 3) or [_big_atom(rng)]))
        elif roll < 0.2:
            elems = "; ".join(_distinct_atoms(rng, rng.randint(2, 3)))
            lines.append(_rule("0 {%s} 1" % elems, _big_body(rng, 2)))
        else:
            lines.append(_rule(_big_atom(rng), _big_body(rng, 3)))
    return lines


def big_lpod(rng: random.Random, n_regular: int, heads: tuple) -> str:
    """A large LPOD program: ``n_regular`` regular rules (normal rules,
    constraints and bounded choice rules) over atoms with constant
    arguments, plus one ordered rule per entry of ``heads``."""
    lines = _big_regular(rng, n_regular)
    for n in heads:
        lines.append(_rule(" * ".join(_distinct_atoms(rng, n)), _big_body(rng, 2)))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def big_crp(rng: random.Random, n_regular: int, n_cr: int, ordered_cr: tuple, ordered: tuple) -> str:
    """A large CR-Prolog2 program: ``n_regular`` regular rules, ``n_cr``
    cr-rules, one ordered cr-rule per entry of ``ordered_cr`` and one
    ordered rule per entry of ``ordered`` (entries are head lengths), and
    a chain of ``prefer`` facts over the cr-rules."""
    lines = _big_regular(rng, n_regular)
    labels = []
    for _ in range(n_cr):
        labels.append("c%d" % len(labels))
        lines.append(labels[-1] + ": " + _rule(_big_atom(rng), _big_body(rng, 2), ":+"))
    for n in ordered_cr:
        labels.append("c%d" % len(labels))
        head = " * ".join(_distinct_atoms(rng, n))
        lines.append(labels[-1] + ": " + _rule(head, _big_body(rng, 2), ":+"))
    for n in ordered:
        lines.append(_rule(" * ".join(_distinct_atoms(rng, n)), _big_body(rng, 2)))
    rng.shuffle(lines)
    order = rng.sample(labels, k=len(labels))
    lines.extend("prefer(%s,%s)." % pair for pair in zip(order, order[1:]))
    return "\n".join(lines) + "\n"
