import hashlib
import random
from pathlib import Path

import pytest

from lpodc import parser
from lpodc.model import Dialect, RuleKind, canonicalize
from lpodc.parser import ParseError, parse, render
from lpodc.randgen import random_crp, random_lpod

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
PARSE = Path(__file__).resolve().parent / "parse"


def test_parse_pi1_shape():
    p = parse("a * b :- not c.  b * c :- not d.", Dialect.LPOD)
    assert len(p.rules) == 2
    assert all(r.kind is RuleKind.ORDERED for r in p.rules)
    assert [str(a) for a in p.rules[0].head_atoms] == ["a", "b"]
    assert p.rules[0].body[0].negated


def test_parse_pi3_shape():
    text = "r1: t :+.  r2: q * s :+.  q :- t.  s :- t.  p :- not q.  r :- not s.  :- p, r."
    p = parse(text, Dialect.CRP2)
    kinds = [r.kind for r in p.rules]
    assert kinds.count(RuleKind.CR) == 1
    assert kinds.count(RuleKind.ORDERED_CR) == 1
    assert kinds.count(RuleKind.REGULAR) == 5
    assert p.rules[-1].is_constraint


def test_parse_empty_input():
    p = parse("", Dialect.LPOD)
    assert p.rules == ()


def test_parse_prefer_fact():
    p = parse("r1: a :+. r2: b :+. prefer(r2,r1).", Dialect.CRP2)
    assert p.prefer_facts == (("r2", "r1"),)


def test_prefer_rejected_in_lpod():
    with pytest.raises(ParseError):
        parse("prefer(r1,r2).", Dialect.LPOD)


def test_cr_arrow_rejected_in_lpod():
    with pytest.raises(ParseError) as err:
        parse("a :+.", Dialect.LPOD)
    assert err.value.span.line == 1


def test_parse_choice_rule():
    p = parse("1 {hotel(1); hotel(2); hotel(3)} 1.", Dialect.LPOD)
    r = p.rules[0]
    assert r.is_choice and r.choice_bounds == (1, 1)
    assert [str(a) for a in r.head_atoms] == ["hotel(1)", "hotel(2)", "hotel(3)"]


def test_parse_error_has_span_inside_input():
    text = "a :- b,, c."
    with pytest.raises(ParseError) as err:
        parse(text, Dialect.LPOD)
    span = err.value.span
    assert 0 <= span.start <= span.end <= len(text)
    assert span.line == 1 and span.column == 8


def test_comments_and_newlines_ignored():
    p = parse("% leading\na. % trailing\r\n\r\nb :- a.\n", Dialect.LPOD)
    assert len(p.rules) == 2


def test_render_pi3_has_two_cr_arrows(pi3):
    assert render(pi3).count(":+") == 2


def test_render_empty_program():
    p = parse("", Dialect.LPOD)
    assert render(p) == ""


def test_round_trip_examples(pi1, pi2, pi3, pi3p):
    # rule indices are canonicalization metadata, re-derived after re-parsing
    for p in (pi1, pi2, pi3, pi3p):
        assert canonicalize(parse(render(p), p.dialect)) == p


def test_round_trip_parsed_program_is_exact():
    text = "a * b :- not c.\nb * c :- not d.\n"
    p = parse(text, Dialect.LPOD)
    assert parse(render(p), Dialect.LPOD) == p


def test_round_trip_random_programs():
    rng = random.Random(17)
    for _ in range(60):
        p = random_lpod(rng) if rng.random() < 0.5 else random_crp(rng)
        assert canonicalize(parse(render(p), p.dialect)) == p


def test_labels_only_on_cr_or_ordered_rules():
    with pytest.raises(ParseError):
        parse("r1: a :- b.", Dialect.CRP2)


def test_mutated_inputs_error_with_spans_inside_input():
    rng = random.Random(71)
    base = "a * b :- not c.\nb * c :- not d.\n1 {a; b} 1.\n"
    junk = ",;*:({0"
    for _ in range(120):
        pos = rng.randrange(len(base))
        text = base[:pos] + rng.choice(junk) + base[pos:]
        try:
            parse(text, Dialect.LPOD)
        except ParseError as err:
            assert 0 <= err.span.start <= err.span.end <= len(text)
            assert err.span.line >= 1 and err.span.column >= 1


def _program_text(rng: random.Random, n_rules: int, dialect: Dialect) -> str:
    """Seeded source text: facts, rules, constraints, choice and ordered
    rules over atoms with constant arguments, labels, comments and CRLF
    line ends; in crp2 also cr-rules, ordered cr-rules and prefer facts."""

    def atom():
        args = [rng.choice(("1", "2", "-3", "a", "b_2", "cX")) for _ in range(rng.choice((0, 0, 1, 2)))]
        pred = rng.choice(("p", "q", "r", "s", "tt"))
        return pred + ("(%s)" % ",".join(args) if args else "")

    def body():
        return ", ".join(rng.choice(("", "not ")) + atom() for _ in range(rng.randint(1, 3)))

    lines, labels = [], []
    for k in range(n_rules):
        roll = rng.random()
        if roll < 0.15:
            line = atom() + "."
        elif roll < 0.35:
            line = "%s :- %s." % (atom(), body())
        elif roll < 0.45:
            line = ":- %s." % body()
        elif roll < 0.55:
            line = "%d {%s} %d." % (rng.randint(0, 1), "; ".join(atom() for _ in range(3)), 2)
        elif dialect is Dialect.CRP2 and roll < 0.75:
            labels.append("l%d" % k)
            heads = " * ".join(atom() for _ in range(rng.randint(1, 3)))
            line = "l%d: %s :+%s." % (k, heads, rng.choice(("", " " + body())))
        else:
            label = rng.choice(("", "o%d: " % k))
            line = "%s%s * %s :- %s." % (label, atom(), atom(), body())
        if rng.random() < 0.2:
            line += "  % note " + rng.choice(("a * b.", ":- x.", "#"))
        lines.append(line)
    if len(labels) >= 2:
        lines.append("prefer(%s,%s)." % tuple(rng.sample(labels, 2)))
    return "".join(line + rng.choice(("\n", "\n", "\r\n")) for line in lines)


_JUNK = ",;*:({0#-%\n"

# one input for each message the junk characters rarely reach
_EDGE_TEXTS = (
    "", "a", "a :-", "a * b :- c", "1 {a; b", "1 {a} b.", "1 {a} 1 :- .", "r: :- a.",
    "r1: a :- b.", "r1: a.", "r: 1 {a} 1.", "prefer(r1,r2).", "prefer(1,r2).",
    "prefer(r1,r2) :- a.", "a(1,-2,b) :- not c(x).", "not.", "a :- not not.", "a(",
    "a\r\n\r\n  b c.", "% only a comment", "\u00e9.", "a :- b.\n\tc :- d\n",
    "p( 1 , b )", "p(1,%c\n2)", "p(-3)", "not(a).", "p(l(1)).", "p(1,).",
    "r: a(1) * b(2) :+ c(3).", "prefer(r1 , r2).",
)


def _parse_corpus() -> list:
    """(name, text): programs/* and one generated program per dialect, each
    as written, 70 times with 1-3 junk characters inserted and 10 times cut
    short; then the edge texts."""
    rng = random.Random(909)
    bases = [(path.name, path.read_text()) for path in sorted(PROGRAMS.iterdir())]
    bases += [("gen.%s" % d.value, _program_text(rng, 12, d)) for d in Dialect]
    corpus = []
    for name, text in bases:
        corpus.append((name, text))
        for k in range(1, 71):
            mutated = text
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(mutated) + 1)
                mutated = mutated[:pos] + rng.choice(_JUNK) + mutated[pos:]
            corpus.append(("%s~%d" % (name, k), mutated))
        corpus += [("%s<%d" % (name, k), text[: rng.randrange(len(text))]) for k in range(1, 11)]
    return corpus + [("edge%d" % k, text) for k, text in enumerate(_EDGE_TEXTS, start=1)]


def _parse_record(text: str, dialect: Dialect) -> str:
    """The rule and prefer counts with a digest of the rendering, or the
    error with its span."""
    try:
        p = parse(text, dialect)
    except ParseError as err:
        s = err.span
        return "%s @ %d %d %d:%d" % (err, s.start, s.end, s.line, s.column)
    digest = hashlib.sha1(render(p).encode()).hexdigest()[:12]
    return "rules=%d prefers=%d render=%s" % (len(p.rules), len(p.prefer_facts), digest)


def _parse_goldens(dialect: Dialect) -> str:
    return "".join("%s: %s\n" % (name, _parse_record(text, dialect)) for name, text in _parse_corpus())


def test_parse_matches_goldens():
    # results, messages and spans are pinned line by line on both dialects
    for dialect in Dialect:
        golden = (PARSE / ("%s.txt" % dialect.value)).read_text().splitlines()
        lines = _parse_goldens(dialect).splitlines()
        assert len(lines) == len(golden) >= 480
        for line, want in zip(lines, golden):
            assert line == want


def test_equal_atom_texts_share_one_atom_per_parse():
    text = "a(1) :- b, not c(x).\nc(x) :- b, not c(x), a(1).\n"
    p, q = parse(text, Dialect.LPOD), parse(text, Dialect.LPOD)
    r1, r2 = p.rules
    assert r2.body[0] is r1.body[0] and r2.body[1] is r1.body[1]
    assert r2.head_atoms[0] is r1.body[1].atom and r2.body[2].atom is r1.head_atoms[0]

    def ids(program):
        return {id(a) for r in program.rules for a in r.head_atoms + tuple(lit.atom for lit in r.body)}

    assert len(ids(p)) == 3 and not ids(p) & ids(q)


def test_spans_are_made_only_for_errors(monkeypatch):
    made = []

    class CountingSpan(parser.SourceSpan):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(parser, "SourceSpan", CountingSpan)
    text = _program_text(random.Random(3), 2000, Dialect.CRP2)
    program = parse(text, Dialect.CRP2)
    assert len(program.rules) == 2000 and not made
    bad = text[: len(text) // 2] + "#" + text[len(text) // 2 :]
    with pytest.raises(ParseError) as err:
        parse(bad, Dialect.CRP2)
    assert len(made) == 1 and err.value.span.start == len(text) // 2


if __name__ == "__main__":
    # regenerate the goldens: PYTHONPATH=src python tests/test_parser.py
    PARSE.mkdir(exist_ok=True)
    for d in Dialect:
        (PARSE / ("%s.txt" % d.value)).write_text(_parse_goldens(d))
