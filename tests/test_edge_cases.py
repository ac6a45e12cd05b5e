"""Corner cases that stress one specific mechanism each."""

from conftest import name_sets
from lpodc import crp as crp_semantics
from lpodc import lpod
from lpodc.evaluate import eval_crp, eval_lpod
from lpodc.lpod import Criterion
from lpodc.model import Dialect, canonicalize
from lpodc.parser import parse
from lpodc.translate import crp2asp, lpod2asp_pref


def test_prefer_cycle_blanks_everything():
    # a preference cycle derives a self-preference, which is inconsistent;
    # both the host semantics and the translation must agree on "nothing"
    text = (
        "r1: a :+.\n"
        "r2: b :+.\n"
        ":- not a, not b.\n"
        "prefer(r1,r2).\n"
        "prefer(r2,r1).\n"
    )
    p = canonicalize(parse(text, Dialect.CRP2))
    gas = crp_semantics.generalized_answer_sets(p)
    assert gas == ()
    assert crp_semantics.preferred_answer_sets(crp_semantics.candidate_answer_sets(gas), p.signature) == ()
    ev = eval_crp(crp2asp(p))
    assert ev.ap_tuples == ()
    assert ev.pas_tuples() == ()


def test_single_tuple_with_several_answer_sets():
    # a free choice keeps one assumption program ambiguous: every answer set
    # of the winning tuple is preferred
    text = "0 {e; f} 2.\na * b :- not c.\n"
    p = canonicalize(parse(text, Dialect.LPOD))
    candidates = lpod.assumption_candidates(p)
    by_assumption = {}
    for c in candidates:
        by_assumption.setdefault(c.assumption, set()).add(c.atoms)
    assert len(by_assumption[(1,)]) == 4
    assert len(by_assumption[(2,)]) == 4
    assert (0,) not in by_assumption
    expected = name_sets(
        s for s in by_assumption[(1,)]
    )
    for criterion in Criterion:
        pref = name_sets(c.atoms for c in lpod.preferred(candidates, criterion))
        assert pref == expected
        ev = eval_lpod(lpod2asp_pref(p, criterion))
        assert ev.pas_tuples() == ((1,),)
        assert name_sets(ev.preferred_projections()) == expected


def test_identifier_constants_survive_translation():
    text = "p(foo) * q(bar) :- not r(baz).\nr(baz) :- q(bar).\n"
    p = canonicalize(parse(text, Dialect.LPOD))
    oracle = {
        (c.assumption, frozenset(str(a) for a in c.atoms))
        for c in lpod.assumption_candidates(p)
    }
    ev = eval_lpod(lpod2asp_pref(p, Criterion.PARETO))
    translated = {
        (xs, frozenset(str(a) for a in proj))
        for xs in ev.ap_tuples
        for proj in ev.projections[xs]
    }
    assert oracle == translated
    oracle_pref = name_sets(c.atoms for c in lpod.preferred(lpod.assumption_candidates(p), Criterion.PARETO))
    assert name_sets(ev.preferred_projections()) == oracle_pref


def test_ordered_rule_head_atom_defined_by_regular_rule():
    # the regular part feeds off the ordered head: picking b also yields a,
    # picking a leaves b out and is satisfied only to degree 2
    text = "a :- b.\nb * a.\n"
    p = canonicalize(parse(text, Dialect.LPOD))
    candidates = lpod.assumption_candidates(p)
    got = {c.assumption: (frozenset(str(x) for x in c.atoms), c.degrees) for c in candidates}
    assert got == {
        (1,): (frozenset({"a", "b"}), (1,)),
        (2,): (frozenset({"a"}), (2,)),
    }
    ev = eval_lpod(lpod2asp_pref(p, Criterion.PENALTY_SUM))
    assert ev.pas_tuples() == ((1,),)
    assert name_sets(ev.preferred_projections()) == {frozenset({"a", "b"})}
