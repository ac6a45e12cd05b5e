import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import load_program, name_sets
from lpodc import crp as crp_semantics
from lpodc import evaluate, lpod
from lpodc.engine import ChoiceHead, GroundProgram, optimal_answer_sets
from lpodc.evaluate import (
    _solve_tuple,
    dump_ground,
    eval_crp,
    eval_lpod,
    evaluate_global_layer,
    ground_document,
    shrink,
    sorted_key,
    tuple_ground_program,
    with_criterion,
)
from lpodc.lpod import Criterion
from lpodc.model import Atom, Dialect, Term, canonicalize
from lpodc.parser import parse
from lpodc.randgen import random_crp, random_lpod, random_lpod_args
from lpodc.translate import (
    AggElem,
    AspDocument,
    ChoiceExpr,
    Cmp,
    CountExpr,
    FactPoolStmt,
    Lit,
    RuleStmt,
    Var,
    crp2asp,
    lpod2asp_base,
    lpod2asp_criterion,
    lpod2asp_pref,
)


def test_eval_pi1_penalty_sum(pi1):
    doc = lpod2asp_pref(pi1, Criterion.PENALTY_SUM)
    ev = eval_lpod(doc)
    assert ev.pas_tuples() == ((1, 1),)
    assert name_sets(ev.preferred_projections()) == {frozenset({"a", "b"})}


def test_eval_pi2_inclusion(pi2):
    ev = eval_lpod(lpod2asp_pref(pi2, Criterion.INCLUSION))
    assert ev.pas_tuples() == ((1, 3), (4, 1))


def test_eval_pi2_pareto(pi2):
    ev = eval_lpod(lpod2asp_pref(pi2, Criterion.PARETO))
    assert ev.pas_tuples() == ((1, 3), (2, 2), (4, 1))


def test_eval_pi2_candidates_and_degrees(pi2):
    ev = eval_lpod(lpod2asp_pref(pi2, Criterion.CARDINALITY))
    assert ev.ap_tuples == ((1, 3), (2, 2), (4, 1))
    assert ev.degrees == {(1, 3): (1, 3), (2, 2): (2, 2), (4, 1): (4, 1)}


def test_eval_crp_pi3(pi3):
    ev = eval_crp(crp2asp(pi3))
    assert ev.candidate_tuples() == ((0, 1), (1, 0), (1, 1))
    assert ev.pas_tuples() == ((0, 1), (1, 0))
    assert name_sets(ev.preferred_projections()) == {
        frozenset({"t", "q", "s"}),
        frozenset({"q", "r"}),
    }


def test_eval_crp_pi3p(pi3p):
    ev = eval_crp(crp2asp(pi3p))
    assert ev.pas_tuples() == ((0, 1),)
    assert name_sets(ev.preferred_projections()) == {frozenset({"q", "r"})}


def test_eval_crp_regular_only():
    p = canonicalize(parse("a :- not b.\nb :- not a.", Dialect.CRP2))
    ev = eval_crp(crp2asp(p))
    assert ev.ap_tuples == ((),)
    assert ev.pas_tuples() == ((),)
    assert name_sets(ev.preferred_projections()) == {
        frozenset({"a"}),
        frozenset({"b"}),
    }


def test_shrink_on_base_optimal_answer_set(pi1):
    doc = lpod2asp_base(pi1)
    ground = ground_document(doc)
    best = optimal_answer_sets(ground, cap=len(ground.atoms))
    assert len(best) == 1
    s = best[0].atoms
    assert {str(a) for a in shrink(s, (1, 1), doc.sigma).atoms} == {"a", "b"}
    assert {str(a) for a in shrink(s, (0, 2), doc.sigma).atoms} == {"c"}
    assert shrink(frozenset(), (1, 1), doc.sigma).atoms == frozenset()


def test_monolithic_base_matches_splitting(pi1):
    # the fully ground base document solved directly yields the same
    # consistent tuples and projections as per-tuple splitting
    doc = lpod2asp_pref(pi1, Criterion.PENALTY_SUM)
    ev = eval_lpod(doc)
    base = lpod2asp_base(pi1)
    ground = ground_document(base)
    best = optimal_answer_sets(ground, cap=len(ground.atoms))
    assert len(best) == 1
    s = best[0].atoms
    mono_tuples = tuple(sorted(a.args for a in s if a.predicate == "ap"))
    assert mono_tuples == ev.ap_tuples
    for xs in mono_tuples:
        assert {shrink(s, xs, base.sigma).atoms} == set(ev.projections[xs])


def test_monolithic_full_document_matches_splitting(pi1):
    doc = lpod2asp_pref(pi1, Criterion.PENALTY_SUM)
    ground = ground_document(doc)
    best = optimal_answer_sets(ground, cap=len(ground.atoms))
    assert len(best) == 1
    s = best[0].atoms
    ev = eval_lpod(doc)
    assert {a.args for a in s if a.predicate == "pAS"} == set(ev.pas_tuples())
    mono_prf = {a.args for a in s if a.predicate == "prf"}
    assert mono_prf == set(ev.relations["prf"])


def test_tuple_programs_are_disjoint(pi1):
    doc = lpod2asp_base(pi1)
    seen = {}
    for xs in doc.tuple_space():
        atoms = tuple_ground_program(doc, xs).atoms
        for other, other_atoms in seen.items():
            assert not (atoms & other_atoms), (xs, other)
        seen[xs] = atoms


def test_inclusion_layer_matches_direct_reading(pi2):
    # the emitted aggregate encoding against the direct subset reading
    doc = lpod2asp_pref(pi2, Criterion.INCLUSION)
    ev = eval_lpod(doc)
    degrees = ev.degrees
    maxdeg = max(r.head_size() for r in pi2.nonregular_rules)

    def deg_sets(xs, d):
        return frozenset(i for i, v in enumerate(degrees[xs], 1) if v == d)

    direct_prf = set()
    for p1 in ev.ap_tuples:
        for p2 in ev.ap_tuples:
            if p1 == p2:
                continue
            for d in range(1, maxdeg + 1):
                s1, s2 = deg_sets(p1, d), deg_sets(p2, d)
                if s1 == s2:
                    continue
                if s2 < s1:
                    direct_prf.add((Term("ap", p1), Term("ap", p2)))
                break
    assert direct_prf == set(ev.relations["prf"])


def _shared_layer_programs(pi1, pi2) -> list:
    """pi1, pi2 and 50 seeded random programs with ordered rules."""
    rng = random.Random(4243)
    programs = [pi1, pi2]
    while len(programs) < 52:
        p = random_lpod(rng)
        if p.nonregular_rules:
            programs.append(p)
    return programs


def _tuple_phase(doc) -> list:
    return [s for s in doc.statements if s.phase == "tuple"]


def test_criterion_documents_share_the_base_tuple_layer(pi1, pi2):
    for p in _shared_layer_programs(pi1, pi2):
        base = lpod2asp_base(p)
        for criterion in Criterion:
            doc = lpod2asp_pref(p, criterion)
            assert _tuple_phase(doc) == _tuple_phase(base)
            assert (doc.sigma, doc.domains) == (base.sigma, base.domains)


def test_with_criterion_equals_full_evaluation(pi1, pi2):
    for p in _shared_layer_programs(pi1, pi2):
        tuples = eval_lpod(lpod2asp_base(p))
        assert tuples.relations == {
            "ap": set(tuples.ap_tuples),
            "degree": {(Term("ap", xs),) + tuples.degrees[xs] for xs in tuples.ap_tuples},
        }
        for criterion in Criterion:
            doc = lpod2asp_pref(p, criterion)
            shared = with_criterion(tuples, doc)
            full = eval_lpod(doc)
            assert shared.criterion == full.criterion == criterion.value
            assert shared.ap_tuples == full.ap_tuples
            assert shared.projections == full.projections
            assert shared.degrees == full.degrees
            assert shared.relations == full.relations


def test_with_criterion_leaves_the_tuple_layer_alone(pi2):
    tuples = eval_lpod(lpod2asp_base(pi2))
    before = {pred: set(rows) for pred, rows in tuples.relations.items()}
    previous = tuples
    for criterion in Criterion:
        doc = lpod2asp_pref(pi2, criterion)
        ev = with_criterion(tuples, doc)
        # another criterion's rows never seed the fixpoint
        assert with_criterion(previous, doc).relations == ev.relations
        previous = ev
    assert tuples.relations == before
    assert tuples.criterion is None


def test_with_criterion_rejects_another_program(pi1, pi2, pi3):
    tuples = eval_lpod(lpod2asp_base(pi2))
    with pytest.raises(ValueError):
        with_criterion(tuples, lpod2asp_pref(pi1, Criterion.PARETO))
    with pytest.raises(ValueError):
        with_criterion(tuples, crp2asp(pi3))
    with pytest.raises(ValueError):
        with_criterion(eval_crp(crp2asp(pi3)), lpod2asp_pref(pi2, Criterion.PARETO))


def test_oracle_translation_agreement_randomized_lpod():
    rng = random.Random(307)
    for _ in range(25):
        p = random_lpod(rng)
        if not p.nonregular_rules:
            continue
        oracle_cands = lpod.assumption_candidates(p)
        for criterion in Criterion:
            doc = lpod2asp_pref(p, criterion)
            ev = eval_lpod(doc)
            assert set(ev.ap_tuples) == {c.assumption for c in oracle_cands}
            oracle_pref = frozenset(c.atoms for c in lpod.preferred(oracle_cands, criterion))
            assert frozenset(ev.preferred_projections()) == oracle_pref


def test_oracle_translation_agreement_randomized_crp():
    rng = random.Random(311)
    for _ in range(15):
        p = random_crp(rng)
        sigma = p.signature
        ev = eval_crp(crp2asp(p))
        gas = crp_semantics.generalized_answer_sets(p)
        oracle_gen = frozenset(g.project(sigma) for g in gas)
        assert frozenset(ev.generalized_projections()) == oracle_gen
        oracle_pref = frozenset(
            crp_semantics.preferred_answer_sets(crp_semantics.candidate_answer_sets(gas), sigma)
        )
        assert frozenset(ev.preferred_projections()) == oracle_pref


def test_dump_ground_contains_tuple_sections(pi1):
    text = dump_ground(lpod2asp_base(pi1))
    assert "% tuple (0, 0)" in text
    assert "ap(1,1)" in text


GROUND = Path(__file__).resolve().parent / "ground"


def _tuple_sections(text: str) -> dict:
    """`% tuple` sections of a ground dump, each as a sorted list of lines
    (a monolithic dump is the one section before any header): the set of
    ground rules is fixed, the order they come out in is not."""
    sections = {}
    current = sections.setdefault("", [])
    for line in text.splitlines():
        if line.startswith("% tuple"):
            current = sections.setdefault(line, [])
        else:
            current.append(line)
    return {head: sorted(lines) for head, lines in sections.items()}


def _ground_dumps(pi1, pi3p) -> dict:
    """Ground dumps by golden file name: per tuple for the pi1 base, pi3p
    and a seeded `random_lpod_args` base (a folded choice p(P,..): P=1..k),
    monolithic for pi1 under each criterion and for pi3p (count aggregates
    with conditions, count assignments and choice heads)."""
    dumps = {
        "pi1_base.txt": dump_ground(lpod2asp_base(pi1)),
        "pi3p.txt": dump_ground(crp2asp(pi3p)),
        "args1_base.txt": dump_ground(lpod2asp_base(random_lpod_args(random.Random(1)))),
        "pi3p_monolithic.txt": dump_ground(crp2asp(pi3p), per_tuple=False),
    }
    for criterion in Criterion:
        doc = lpod2asp_pref(pi1, criterion)
        dumps["pi1_%s_monolithic.txt" % criterion.value] = dump_ground(doc, per_tuple=False)
    return dumps


def test_dump_ground_matches_goldens(pi1, pi3p):
    dumps = _ground_dumps(pi1, pi3p)
    for name, text in dumps.items():
        golden = (GROUND / name).read_text()
        assert _tuple_sections(text) == _tuple_sections(golden), name
    assert set(dumps) == {path.name for path in GROUND.glob("*.txt")}


def _chain(heads: tuple):
    """a_i * b_i [* c_i] :- not d_i. per entry of heads, plus :- a_i, a_{i+1}."""
    lines = [
        "%s :- not d%d." % (" * ".join("%s%d" % (c, i) for c in "abc"[:n]), i)
        for i, n in enumerate(heads, start=1)
    ]
    lines += [":- a%d, a%d." % (i, i + 1) for i in range(1, len(heads))]
    return canonicalize(parse("\n".join(lines), Dialect.LPOD))


def _tuple_corpus(pi1, pi2, pi3, pi3p) -> list:
    """140 documents: pi1 and pi2 base and under each criterion, pi3, pi3p,
    three chains and seeded random programs of every generator."""
    docs = []
    for p in (pi1, pi2):
        docs.append(lpod2asp_base(p))
        docs.extend(lpod2asp_pref(p, c) for c in Criterion)
    docs += [crp2asp(pi3), crp2asp(pi3p)]
    docs += [lpod2asp_base(_chain(heads)) for heads in ((3, 3), (2, 3, 2), (2, 2, 3, 2))]
    rng = random.Random(4421)
    for _ in range(50):
        docs += [lpod2asp_base(random_lpod(rng)), crp2asp(random_crp(rng))]
    docs += [lpod2asp_base(random_lpod_args(rng)) for _ in range(25)]
    return docs


def _atoms_of(doc, xs):
    """Decodes a mask over the document's atom ids, as numbered so far,
    into the atoms it holds with the tuple's values substituted."""
    values = {"X%d" % i: x for i, x in enumerate(xs, start=1)}
    atoms = [evaluate._subst(a, values) for a in doc.templates["ids"]]
    return lambda mask: frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)


def _searched_rules(doc, xs) -> Counter:
    """The rows `_solve_tuple` searches for `xs`, decoded through the id
    table with the tuple's values substituted: a multiset of (head, pos,
    neg, aggregates) over atom sets."""
    rows = evaluate._tuple_rows(doc, xs)
    decode = _atoms_of(doc, xs)

    def head(h):
        if type(h) is tuple:
            return (decode(h[0]),) + h[1:]
        return h if h is None else decode(h)

    aggregates = lambda aggs: tuple((lo, hi, decode(elem), fixed) for lo, hi, elem, fixed in aggs)
    return Counter((head(h), decode(pos), decode(neg), aggregates(aggs)) for h, pos, neg, aggs in rows)


def _ground_rules(prog) -> Counter:
    """The multiset of `_searched_rules` for the rules of a ground program."""

    def head(h):
        if isinstance(h, ChoiceHead):
            return (frozenset(h.atoms), h.lower, h.upper)
        return h if h is None else frozenset({h})

    aggregates = lambda aggs: tuple((g.lower, g.upper, g.atoms, g.fixed) for g in aggs)
    return Counter((head(r.head), r.pos, r.neg, aggregates(r.aggregates)) for r in prog.rules)


def test_tuple_ground_program_equals_grounding_per_tuple(pi1, pi2, pi3, pi3p):
    # the reference grounds every tuple-phase statement with all X_i fixed
    docs = _tuple_corpus(pi1, pi2, pi3, pi3p)
    tuples = 0
    for doc in docs:
        for xs in doc.tuple_space():
            reference = tuple_ground_program(doc, xs)
            assert _searched_rules(doc, xs) == _ground_rules(reference), xs
            # its one weak constraint is :~ ap(xs). [-1, xs], which every
            # model of the tuple's search pays, so the search has no weak rows
            weak = [(w.weight, w.terms, w.pos, w.neg, w.aggregates) for w in reference.weak]
            assert weak == [(-1, xs, frozenset({Atom("ap", xs)}), frozenset(), ())], xs
            tuples += 1
    assert len(docs) == 140 and tuples > 1500


def test_template_atoms_have_one_id_per_document(pi1, monkeypatch):
    doc = lpod2asp_base(pi1)
    for xs in doc.tuple_space():
        _solve_tuple(doc, xs)
    ids = doc.templates["ids"]
    for pred in ("ap", "body_1"):
        assert [str(a) for a in ids if a.predicate == pred] == ["%s(X1,X2)" % pred]
    # body_1 is named alike by an ungated statement and one gated on X1;
    # an X_i nested in a term, as in degree(ap(X1,X2),D1,D2), gates nothing
    gated = {"body-off-constraint", "body-on-constraint", "degree-from-positive", "degree-from-zero"}
    gated |= {"first-true-guard", "head-option"}
    expected = {(tag, (i,)) for tag in gated for i in (0, 1)}
    expected |= {("assumption-choice", ()), ("body-definition", ()), ("degree-choice", ())}
    assert {(s.tag, gate) for s, gate, _ in doc.templates["statements"]} == expected
    calls, ground = [], evaluate._ground_statement
    monkeypatch.setattr(evaluate, "_ground_statement", lambda *args: calls.append(args) or ground(*args))
    before = dict(ids)
    for xs in doc.tuple_space():
        _solve_tuple(doc, xs)
    assert ids == before and calls == []


def test_crp_template_gates(pi3p):
    # the X_i a statement compares, and only those, gate its templates
    doc = crp2asp(pi3p)
    _solve_tuple(doc, doc.tuple_space()[0])
    expected = {("cr-rule", (0,)), ("ordered-option", (1,)), ("preference-applied-conflict", (0, 1))}
    ungated = ("assumption-choice", "prefer-lift", "preference-closure", "preference-irreflexive", "regular-rule")
    expected |= {(tag, ()) for tag in ungated}
    assert {(s.tag, gate) for s, gate, _ in doc.templates["statements"]} == expected


def test_assumption_choice_is_ground_once_per_document(pi1):
    # its X_i = lo..hi conditions cover the domains of the X_i, so they
    # gate nothing and every tuple shares the one template
    for p in (pi1, _chain((3, 3, 3))):
        doc = lpod2asp_base(p)
        eval_lpod(doc)
        templates = [by_value for s, _, by_value in doc.templates["statements"] if s.tag == "assumption-choice"]
        assert [len(by_value) for by_value in templates] == [1]


def test_first_pass_grounds_every_template_through_ground_statement(pi1, monkeypatch):
    # the second pass of test_template_atoms_have_one_id_per_document makes
    # no call; the first makes one per template, through the same function
    calls, ground = [], evaluate._ground_statement
    monkeypatch.setattr(evaluate, "_ground_statement", lambda stmt, *args: calls.append(stmt) or ground(stmt, *args))
    doc = lpod2asp_base(pi1)
    for xs in doc.tuple_space():
        _solve_tuple(doc, xs)
    templates = doc.templates["statements"]
    assert Counter(map(id, calls)) == Counter({id(s): len(by_value) for s, _, by_value in templates})
    assert len(calls) > len(templates)


def test_each_tuple_statement_body_is_compiled_once_per_document(pi1, monkeypatch):
    plans, plan = [], evaluate._plan
    monkeypatch.setattr(evaluate, "_plan", lambda items, *args: plans.append(items) or plan(items, *args))
    for p in (pi1, _chain((3, 3, 3))):
        doc = lpod2asp_base(p)
        plans.clear()
        for xs in doc.tuple_space():
            _solve_tuple(doc, xs)
        templates = [(s, by_value) for s, _, by_value in doc.templates["statements"] if not isinstance(s, FactPoolStmt)]
        bodies = Counter(id(s.body) for s, _ in templates)
        assert Counter(id(items) for items in plans if id(items) in bodies) == bodies
        # however many gate values a statement has
        assert max(len(by_value) for _, by_value in templates) > 1


def test_solve_tuple_builds_no_ground_program(pi2, monkeypatch):
    calls = []
    atoms = GroundProgram.atoms.fget

    def counted(prog):
        calls.append(prog)
        return atoms(prog)

    class Counted(GroundProgram):
        def __init__(self, *args, **kwargs):
            calls.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(GroundProgram, "atoms", property(counted))
    monkeypatch.setattr(evaluate, "GroundProgram", Counted)
    doc = lpod2asp_base(pi2)
    models = [_solve_tuple(doc, xs) for xs in doc.tuple_space()]
    assert calls == []
    assert sum(map(len, models)) == 3


def test_solve_tuple_equals_optimal_models_with_ap(pi1, pi2, pi3, pi3p):
    # the reference solves the tuple's GroundProgram with weak constraints;
    # the document's decode projects its models as shrink does and finds
    # the degree / isPreferred rows a scan of them finds
    tuples = models = no_params = 0
    # with m = 0 every atom of σ is its own projection, arguments and all
    args = crp2asp(canonicalize(parse("p(1).\nq(2) :- p(1), not r(3).\nr(3) :- not q(2).", Dialect.CRP2)))
    for doc in _tuple_corpus(pi1, pi2, pi3, pi3p) + [args]:
        pred = "isPreferred" if doc.dialect is Dialect.CRP2 else "degree"
        projections, scanned = {}, {}
        for xs in doc.tuple_space():
            best = optimal_answer_sets(tuple_ground_program(doc, xs), cap=None)
            with_ap = [s for s in best if Atom("ap", xs) in s.atoms]
            assert all(s.penalty == -1 for s in with_ap), xs
            expected = [s.atoms for s in with_ap]
            got = _solve_tuple(doc, xs)
            assert Counter(map(_atoms_of(doc, xs), got)) == Counter(expected), xs
            if got:
                projections[xs] = tuple(sorted({shrink(s, xs, doc.sigma).atoms for s in expected}, key=sorted_key))
                scanned[xs] = {tuple(a.args) for s in expected for a in s if a.predicate == pred}
            tuples += 1
            models += len(expected)
        layer, found = evaluate._solve_tuples(doc, len(doc.sigma), pred)
        assert layer.projections == projections
        assert {xs: set(rows) for xs, rows in found.items()} == scanned
        no_params += not doc.domains
    assert tuples > 1500 and models > 400 and no_params >= 1


def test_solve_tuple_rejects_unfounded_loops():
    # p and q support only each other: no model of any tuple holds them
    p = canonicalize(parse("a * b :- not c.\np :- q.\nq :- p.\nc :- p, a.", Dialect.LPOD))
    doc = lpod2asp_base(p)
    found = 0
    for xs in doc.tuple_space():
        masks = _solve_tuple(doc, xs)
        got = [_atoms_of(doc, xs)(t) for t in masks]
        for s in got:
            assert not {a.predicate for a in s} & {"p", "q", "c"}, (xs, s)
        best = optimal_answer_sets(tuple_ground_program(doc, xs), cap=None)
        expected = [s for s in best if Atom("ap", xs) in s.atoms]
        assert Counter(got) == Counter(s.atoms for s in expected)
        assert all(s.penalty == -1 for s in expected)
        found += len(got)
    assert found == 2


GLOBAL = Path(__file__).resolve().parent / "global"


def _render_relations(relations: dict) -> str:
    """A `% pred count` line per relation, followed by its rows as sorted atoms."""
    lines = []
    for pred in sorted(relations):
        lines.append("%% %s %d" % (pred, len(relations[pred])))
        lines += sorted(str(Atom(pred, row)) for row in relations[pred])
    return "\n".join(lines) + "\n"


def _global_relations(pi1, pi2, pi3, pi3p) -> dict:
    """Rendered global-layer relations by golden file name."""
    out = {}
    for name, p in (("pi1", pi1), ("pi2", pi2), ("chain332", _chain((3, 3, 2)))):
        tuples = eval_lpod(lpod2asp_base(p))
        for criterion in Criterion:
            relations = with_criterion(tuples, lpod2asp_pref(p, criterion)).relations
            out["%s_%s.txt" % (name, criterion.value)] = _render_relations(relations)
    for name, p in (("pi3", pi3), ("pi3p", pi3p)):
        out[name + ".txt"] = _render_relations(eval_crp(crp2asp(p)).relations)
    return out


def test_global_layer_matches_goldens(pi1, pi2, pi3, pi3p):
    # every row of every relation is pinned, whatever evaluates the layer
    relations = _global_relations(pi1, pi2, pi3, pi3p)
    for name, text in relations.items():
        assert text == (GLOBAL / name).read_text(), name
    assert set(relations) == {path.name for path in GLOBAL.glob("*.txt")}


def _small_reference_programs() -> list:
    """Seeded random programs small enough to ground and solve whole: 12
    LPOD programs with at most 9 tuples, 12 CR-Prolog2 ones with at most 8."""
    rng = random.Random(5)
    lpods, crps = [], []
    while len(lpods) < 12 or len(crps) < 12:
        p = random_lpod(rng, max_atoms=3, max_ordered=2)
        if len(lpods) < 12 and p.nonregular_rules and len(lpod2asp_base(p).tuple_space()) <= 9:
            lpods.append(p)
        q = random_crp(rng, max_atoms=3, max_cr=1)
        if len(crps) < 12 and len(crp2asp(q).tuple_space()) <= 8:
            crps.append(q)
    return lpods + crps


def test_global_layer_equals_the_monolithic_optimum(pi1, pi2, pi3, pi3p):
    # every relation of the splitting evaluation is the set of atoms of its
    # predicate in each optimum of the whole document, ground and solved at
    # once as in criterion 9; pi2 under inclusion is left out, as that
    # monolithic solve takes about a minute
    small = _small_reference_programs()
    runs = [(pi1, tuple(Criterion)), (pi2, (Criterion.CARDINALITY, Criterion.PARETO, Criterion.PENALTY_SUM))]
    runs += [(p, tuple(Criterion)) for p in small if p.dialect is Dialect.LPOD]
    cases = []
    for p, criteria in runs:
        base = lpod2asp_base(p)
        tuples = eval_lpod(base)
        for criterion in criteria:
            doc = lpod2asp_criterion(base, criterion)
            cases.append((doc, with_criterion(tuples, doc)))
    for p in [pi3, pi3p] + [p for p in small if p.dialect is Dialect.CRP2]:
        doc = crp2asp(p)
        cases.append((doc, eval_crp(doc)))
    for doc, ev in cases:
        best = optimal_answer_sets(ground_document(doc), cap=None)
        assert best
        for s in best:
            for pred, rows in ev.relations.items():
                assert {a.args for a in s.atoms if a.predicate == pred} == rows, (doc.criterion, pred)
    assert len(cases) == 7 + 2 + 12 * 4 + 12


def _global_document(*statements) -> AspDocument:
    return AspDocument(
        dialect=Dialect.LPOD, m=0, heads=(), domains=(), sigma=frozenset(), statements=statements
    )


def test_global_layer_iterates_a_positive_cycle_to_its_fixpoint():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    doc = _global_document(
        # read before the cycle that defines path is evaluated
        RuleStmt(Lit("acyclic", (x,)), (Lit("node", (x,)), Lit("path", (x, x), neg=True)), phase="global"),
        RuleStmt(Lit("cyclic", (x,)), (Lit("path", (x, x)),), phase="global"),
        RuleStmt(Lit("path", (x, z)), (Lit("path", (x, y)), Lit("edge", (y, z))), phase="global"),
        RuleStmt(Lit("path", (x, y)), (Lit("edge", (x, y)),), phase="global"),
        # a cycle through two predicates
        RuleStmt(Lit("odd", (x, y)), (Lit("edge", (x, y)),), phase="global"),
        RuleStmt(Lit("even", (x, z)), (Lit("odd", (x, y)), Lit("edge", (y, z))), phase="global"),
        RuleStmt(Lit("odd", (x, z)), (Lit("even", (x, y)), Lit("edge", (y, z))), phase="global"),
    )
    chain = {(1, 2), (2, 3), (3, 4), (4, 5)}
    rel = evaluate_global_layer(doc, {"edge": chain | {(5, 3)}, "node": {(n,) for n in range(1, 6)}})
    assert rel["path"] == {(1, b) for b in range(2, 6)} | {(2, b) for b in range(3, 6)} | {
        (a, b) for a in range(3, 6) for b in range(3, 6)
    }
    assert rel["acyclic"] == {(1,), (2,)}
    assert rel["cyclic"] == {(3,), (4,), (5,)}
    rel = evaluate_global_layer(doc, {"edge": chain, "node": set()})
    assert rel["odd"] == {(a, b) for a in range(1, 6) for b in range(a + 1, 6) if (b - a) % 2}
    assert rel["even"] == {(a, b) for a in range(1, 6) for b in range(a + 1, 6) if not (b - a) % 2}


def test_global_layer_rejects_negation_and_counts_inside_a_cycle():
    x, y = Var("X"), Var("Y")
    negative = RuleStmt(Lit("p", (x,)), (Lit("q", (x,)), Lit("p", (x,), neg=True)), phase="global")
    count = RuleStmt(
        Lit("p", (x,)),
        (Lit("q", (x,)), CountExpr(elements=(AggElem(Lit("r", (y,))),), upper=0)),
        phase="global",
    )
    back = RuleStmt(Lit("r", (x,)), (Lit("p", (x,)),), phase="global")
    for statements in ((negative,), (count, back)):
        with pytest.raises(ValueError, match="not stratified"):
            evaluate_global_layer(_global_document(*statements), {"q": {(1,)}})


def test_a_variable_that_no_item_binds_is_unsafe():
    # every statement is safe: a variable is bound by the body or raises
    x, y = Var("X"), Var("Y")
    q = Lit("q", (x,))
    statements = [
        RuleStmt(Lit("p", (x,)), (q, Cmp("<", x, y)), phase="global"),
        RuleStmt(Lit("p", (x,)), (q, Lit("r", (y,), neg=True)), phase="global"),
        RuleStmt(Lit("p", (x, y)), (q,), phase="global"),
    ]
    for stmt in statements:
        with pytest.raises(ValueError, match="unsafe variable Y"):
            evaluate_global_layer(_global_document(stmt), {"q": {(1,)}, "r": {(2,)}})
        with pytest.raises(ValueError, match="unsafe variable Y"):
            ground_document(_global_document(RuleStmt(Lit("q", (1,))), RuleStmt(Lit("r", (2,))), stmt))
    # a choice head's element atoms are defined, not read: only their
    # conditions bind them, though the possible atoms hold p(1)
    choice = RuleStmt(ChoiceExpr((AggElem(Lit("p", (y,))),)), (Lit("p", (x,)),))
    with pytest.raises(ValueError, match="unsafe variable Y"):
        tuple_ground_program(_global_document(RuleStmt(Lit("p", (1,))), choice), ())


def test_template_atom_ids_follow_the_sort_order(pi1, pi3p):
    # numbered once per document, whatever the string hash seed
    for doc in (lpod2asp_base(pi1), crp2asp(pi3p)):
        _solve_tuple(doc, doc.tuple_space()[0])
        ids = doc.templates["ids"]
        assert list(ids) == sorted(ids, key=Atom.sort_key)
        assert list(ids.values()) == list(range(len(ids)))


def test_each_global_rule_is_joined_once(pi2, monkeypatch):
    runs = []
    plan = evaluate._plan

    def counted(items, *args):
        run = plan(items, *args)

        def counted_run(env):
            runs.append(items)
            return run(env)

        return counted_run

    monkeypatch.setattr(evaluate, "_plan", counted)
    tuples = eval_lpod(lpod2asp_base(pi2))
    for criterion in Criterion:
        doc = lpod2asp_pref(pi2, criterion)
        rules = [s for s in doc.statements if s.phase == "global" and isinstance(s, RuleStmt)]
        runs.clear()
        with_criterion(tuples, doc)
        assert [sum(body is s.body for body in runs) for s in rules] == [1] * len(rules), criterion


if __name__ == "__main__":
    # regenerate the goldens: PYTHONPATH=src python tests/test_evaluate.py
    pi1, pi2, pi3, pi3p = map(load_program, ("pi1.lpod", "pi2.lpod", "pi3.crp", "pi3p.crp"))
    for folder, texts in ((GROUND, _ground_dumps(pi1, pi3p)), (GLOBAL, _global_relations(pi1, pi2, pi3, pi3p))):
        folder.mkdir(exist_ok=True)
        for name, text in texts.items():
            (folder / name).write_text(text)
