import gc
import hashlib
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import goldens
from conftest import PROGRAMS, load_program, tokens
from lpodc.lpod import Criterion
from lpodc.model import Dialect, canonicalize
from lpodc.parser import parse, render
from lpodc.randgen import random_crp, random_lpod, random_lpod_args
from lpodc.translate import (
    AspDocument,
    ChoiceExpr,
    DegenerateProgram,
    Lit,
    RuleStmt,
    WeakStmt,
    crp2asp,
    emit,
    lpod2asp_base,
    lpod2asp_criterion,
    lpod2asp_pref,
    parse_emitted,
)


def test_base_statement_count_formula(pi1, pi2):
    # 2 + |regular| + sum_i(3 + 2 n_i) + 1 + 2m
    for p in (pi1, pi2):
        doc = lpod2asp_base(p)
        m = len(p.nonregular_rules)
        expected = (
            2
            + len(p.regular_rules)
            + sum(3 + 2 * r.head_size() for r in p.nonregular_rules)
            + 1
            + 2 * m
        )
        assert len(doc.statements) == expected


def test_pi1_base_statement_count_value(pi1):
    assert len(lpod2asp_base(pi1).statements) == 21


def test_degenerate_program_raises():
    p = canonicalize(parse("a :- not b.", Dialect.LPOD))
    with pytest.raises(DegenerateProgram):
        lpod2asp_base(p)


def _lit_arities(doc):
    arities = {}

    def visit_lit(lit):
        arities.setdefault(lit.pred, set()).add(len(lit.args))

    def visit_items(items):
        for it in items:
            if isinstance(it, Lit):
                visit_lit(it)
            elif hasattr(it, "elements"):
                for el in it.elements:
                    if isinstance(el.item, Lit):
                        visit_lit(el.item)

    for stmt in doc.statements:
        if isinstance(stmt, RuleStmt):
            if isinstance(stmt.head, Lit):
                visit_lit(stmt.head)
            elif isinstance(stmt.head, ChoiceExpr):
                for el in stmt.head.elements:
                    if isinstance(el.item, Lit):
                        visit_lit(el.item)
            visit_items(stmt.body)
        elif isinstance(stmt, WeakStmt):
            visit_items(stmt.body)
    return arities


def test_emitted_arities_match_signature_table(pi2):
    doc = lpod2asp_pref(pi2, Criterion.CARDINALITY)
    m = doc.m
    arities = _lit_arities(doc)
    expected = {
        "ap": {m},
        "degree": {m + 1},
        "body_1": {m},
        "body_2": {m},
        "prf": {2},
        "pAS": {m},
        "card": {3},
        "equ2degree": {3},
        "prf2degree": {3},
    }
    for pred, want in expected.items():
        assert arities[pred] == want, pred
    for pred in ("hotel",):
        # original atoms gain one argument per ordered rule
        assert arities[pred] == {1 + m}


def test_crp_arities(pi3p):
    doc = crp2asp(pi3p)
    m = doc.m
    arities = _lit_arities(doc)
    assert arities["ap"] == {m}
    assert arities["dominate"] == {2}
    assert arities["isPreferred"] == {m + 2}
    assert arities["candidate"] == {m}
    assert arities["lessCrRulesApplied"] == {2}
    assert arities["pAS"] == {m}


def test_emission_deterministic(pi1, pi2, pi3p):
    for build in (
        lambda: emit(lpod2asp_base(pi1)),
        lambda: emit(lpod2asp_pref(pi2, Criterion.INCLUSION)),
        lambda: emit(crp2asp(pi3p)),
    ):
        assert build() == build()


def test_equal_programs_emit_identical_text():
    text = "a * b :- not c.\nb * c :- not d.\n"
    p1 = canonicalize(parse(text, Dialect.LPOD))
    p2 = canonicalize(parse(text, Dialect.LPOD))
    assert emit(lpod2asp_base(p1)) == emit(lpod2asp_base(p2))


def test_golden_pi1_base(pi1):
    assert tokens(emit(lpod2asp_base(pi1))) == tokens(goldens.PI1_BASE)


@pytest.mark.parametrize(
    "criterion,block",
    [
        (Criterion.CARDINALITY, goldens.PI2_CARDINALITY),
        (Criterion.INCLUSION, goldens.PI2_INCLUSION),
        (Criterion.PARETO, goldens.PI2_PARETO),
        (Criterion.PENALTY_SUM, goldens.PI2_PENALTY_SUM),
    ],
)
def test_golden_pi2_full(pi2, criterion, block):
    assert tokens(emit(lpod2asp_pref(pi2, criterion))) == tokens(
        goldens.PI2_BASE + block
    )


def test_golden_pi3(pi3):
    assert tokens(emit(crp2asp(pi3))) == tokens(goldens.PI3_CRP)


def test_golden_pi3p_is_pi3_plus_extension(pi3p):
    assert tokens(emit(crp2asp(pi3p))) == tokens(goldens.PI3_CRP + goldens.PI3P_EXTENSION)


def test_maxdegree_constant(pi2):
    doc = lpod2asp_pref(pi2, Criterion.PARETO)
    assert doc.constants == (("maxdegree", 4),)
    assert emit(doc).splitlines()[0] == "#const maxdegree = 4."


def test_extended_atom_rendering(pi2):
    text = emit(lpod2asp_base(pi2))
    assert "hotel(1,X1,X2)" in text
    assert "1{degree(ap(X1,X2),D1,D2): D1=1..4, D2=1..3}1 :- ap(X1,X2)." in text


def test_first_true_guard_line(pi1):
    assert ":- body_1(X1,X2), X1!=2, not a(X1,X2), b(X1,X2)." in emit(lpod2asp_base(pi1))


def test_rulewise_block_only_with_prefer(pi3, pi3p):
    assert "isPreferred" not in emit(crp2asp(pi3))
    assert "prefer(2,1,X1,X2) :- ap(X1,X2)." in emit(crp2asp(pi3p))


def _bare(statements):
    return [replace(s, tag="", phase="") for s in statements]


def _assert_round_trip(doc):
    constants, statements = parse_emitted(emit(doc))
    assert constants == doc.constants
    assert _bare(statements) == _bare(doc.statements)


# no cr-rule and no ordered rule: m = 0, so the ap term is the constant ap
M0_CRP = ("a :- not b. b :- not a.", "a. :- b.", "a :- not a.")


def test_emitted_text_reparses_to_same_structure(pi1, pi2, pi3, pi3p):
    docs = [lpod2asp_base(pi1), crp2asp(pi3), crp2asp(pi3p)]
    docs += [lpod2asp_pref(pi2, c) for c in Criterion]
    docs += [crp2asp(canonicalize(parse(text, Dialect.CRP2))) for text in M0_CRP]
    assert [d.m for d in docs[-len(M0_CRP):]] == [0] * len(M0_CRP)
    for doc in docs:
        _assert_round_trip(doc)


def test_emitted_text_reparses_on_random_programs():
    rng = random.Random(97)
    for _ in range(25):
        for p in (random_lpod(rng), random_lpod_args(rng)):
            _assert_round_trip(lpod2asp_pref(p, rng.choice(list(Criterion))))
        _assert_round_trip(crp2asp(random_crp(rng)))
        _assert_round_trip(crp2asp(random_crp(rng, max_cr=0, max_ordered_cr=0, max_ordered=0)))


T, G = "tuple", "global"
# (tag, phase) of every statement, recorded before the fixed-shape rules
# were written as text; one block per ordered rule of pi1 (two heads each)
PI1_BASE_TAGS = [
    ("assumption-choice", T), ("assumption-weight", T),
    ("body-definition", T), ("body-off-constraint", T), ("body-on-constraint", T),
    ("head-option", T), ("head-option", T), ("first-true-guard", T), ("first-true-guard", T),
    ("body-definition", T), ("body-off-constraint", T), ("body-on-constraint", T),
    ("head-option", T), ("head-option", T), ("first-true-guard", T), ("first-true-guard", T),
    ("degree-choice", T),
    ("degree-from-zero", T), ("degree-from-positive", T),
    ("degree-from-zero", T), ("degree-from-positive", T),
]
PI2_BASE_TAGS = [
    ("assumption-choice", T), ("assumption-weight", T),
    ("regular-rule", T), ("regular-rule", T), ("regular-rule", T), ("regular-rule", T),
    ("regular-rule", T), ("regular-rule", T), ("regular-rule", T),
    ("body-definition", T), ("body-off-constraint", T), ("body-on-constraint", T),
    ("head-option", T), ("head-option", T), ("head-option", T), ("head-option", T),
    ("first-true-guard", T), ("first-true-guard", T), ("first-true-guard", T), ("first-true-guard", T),
    ("body-definition", T), ("body-off-constraint", T), ("body-on-constraint", T),
    ("head-option", T), ("head-option", T), ("head-option", T),
    ("first-true-guard", T), ("first-true-guard", T), ("first-true-guard", T),
    ("degree-choice", T),
    ("degree-from-zero", T), ("degree-from-positive", T),
    ("degree-from-zero", T), ("degree-from-positive", T),
]
PI2_CRITERION_TAGS = {
    Criterion.CARDINALITY: [
        ("cardinality-count", G), ("equal-at-degree", G), ("better-at-degree", G),
        ("preference", G), ("preferred-answer-set", G),
    ],
    Criterion.INCLUSION: [
        ("even-parity-facts", G), ("equal-at-degree", G), ("better-at-degree", G),
        ("preference", G), ("preferred-answer-set", G),
    ],
    Criterion.PARETO: [("degree-equality", G), ("preference", G), ("preferred-answer-set", G)],
    Criterion.PENALTY_SUM: [("degree-sum", G), ("preference", G), ("preferred-answer-set", G)],
}
PI3_TAGS = [
    ("assumption-choice", T), ("assumption-weight", T),
    ("regular-rule", T), ("regular-rule", T), ("regular-rule", T), ("regular-rule", T), ("regular-rule", T),
    ("cr-rule", T), ("ordered-option", T), ("ordered-option", T),
    ("atomwise-dominance", G), ("atomwise-dominance", G),
    ("candidate-rule", G), ("fewer-applied", G), ("preferred-rule", G),
]
PI3P_EXTENSION_TAGS = [
    ("prefer-lift", T), ("preference-closure", T), ("preference-closure", T),
    ("preference-irreflexive", T), ("preference-applied-conflict", T), ("rulewise-dominance", G),
]


def _tags(doc):
    return [(s.tag, s.phase) for s in doc.statements]


def test_statement_tags_and_phases(pi1, pi2, pi3, pi3p):
    assert _tags(lpod2asp_base(pi1)) == PI1_BASE_TAGS
    for criterion, layer in PI2_CRITERION_TAGS.items():
        assert _tags(lpod2asp_pref(pi2, criterion)) == PI2_BASE_TAGS + layer
    assert _tags(crp2asp(pi3)) == PI3_TAGS
    assert _tags(crp2asp(pi3p)) == PI3_TAGS + PI3P_EXTENSION_TAGS


def test_crp_without_ordered_or_prefer_has_no_dominate_rules():
    p = canonicalize(parse("r1: a :+. b :- not a.", Dialect.CRP2))
    text = emit(crp2asp(p))
    assert ":- ap(X1), ap(Y1)" not in text
    # candidate mirrors ap via the empty dominate relation
    assert "candidate(X1) :- ap(X1), {dominate(P,ap(X1))}0." in text


def test_identity_memos_end_with_their_call():
    # the extension and rendering memos are keyed by object identity: a
    # collected document's ids are reused by the next one's objects
    texts = ("p(1) * q(a) :- not r(2).\ns :- p(1), not q(a).\n", "u(3) * v :- not w(b).\nx :- v.\n")
    want = [emit(lpod2asp_pref(canonicalize(parse(t, Dialect.LPOD)), Criterion.PARETO)) for t in texts]
    for k in range(8):
        gc.collect()
        doc = lpod2asp_pref(canonicalize(parse(texts[k % 2], Dialect.LPOD)), Criterion.PARETO)
        assert emit(doc) == want[k % 2]
        del doc
    for text in want:
        constants, statements = parse_emitted(text)
        doc = AspDocument(Dialect.LPOD, 0, (), (), frozenset(), statements, constants)
        assert emit(doc) == text


EMITTED = Path(__file__).resolve().parent / "translate" / "emitted.txt"


def _emitted_corpus() -> list:
    """(name, program): programs/* and seeded random_lpod_args, random_lpod
    and random_crp programs with choice rules, each rendered and read back
    through parse, so the parser builds every atom the translations see."""
    programs = [(path.name, load_program(path.name)) for path in sorted(PROGRAMS.iterdir())]
    rng = random.Random(1616)
    programs += [("random_lpod_args:%d" % i, random_lpod_args(rng)) for i in range(100)]
    programs += [("random_lpod:%d" % i, random_lpod(rng)) for i in range(100)]
    programs += [("random_crp:%d" % i, random_crp(rng, with_choice=True)) for i in range(100)]
    return [(name, canonicalize(parse(render(p), p.dialect))) for name, p in programs]


def _emitted_digests() -> str:
    """One `<document> <sha256 of its emitted text>` line per document: the
    base translation and each criterion's, or the crp2asp translation."""
    lines = []
    for name, p in _emitted_corpus():
        if p.dialect is Dialect.CRP2:
            docs = [(name, crp2asp(p))]
        else:
            base = lpod2asp_base(p)
            docs = [(name + ":base", base)]
            docs += [("%s:%s" % (name, c.value), lpod2asp_criterion(base, c)) for c in Criterion]
        for doc_name, doc in docs:
            lines.append("%s %s" % (doc_name, hashlib.sha256(emit(doc).encode()).hexdigest()))
    return "".join(line + "\n" for line in lines)


def test_emitted_text_matches_digests():
    # every document's text is pinned; regenerate with --write (see below)
    want = EMITTED.read_text().splitlines()
    got = _emitted_digests().splitlines()
    assert len(got) == len(want) >= 1000
    differing = [g.split()[0] for g, w in zip(got, want) if g != w]
    assert not differing, "emitted text differs: %s" % ", ".join(differing[:5])


if __name__ == "__main__":
    # regenerate the digests: PYTHONPATH=src python tests/test_translate.py --write
    text = _emitted_digests()
    if sys.argv[1:] == ["--write"]:
        EMITTED.parent.mkdir(exist_ok=True)
        EMITTED.write_text(text)
    else:
        sys.stdout.write(text)
