"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s or -v to see them) and enforcing its stated
time budget."""

import random
import time

import pytest

import goldens
from conftest import atom_names, load_program, name_sets, tokens
from lpodc import crp as crp_semantics
from lpodc import lpod
from lpodc.engine import GroundProgram, GroundRule, answer_sets, is_answer_set, optimal_answer_sets
from lpodc.evaluate import eval_crp, eval_lpod, ground_document, shrink, with_criterion
from lpodc.lpod import Criterion
from lpodc.model import Atom
from lpodc.randgen import random_crp, random_ground_program, random_lpod
from lpodc.translate import crp2asp, emit, lpod2asp_base, lpod2asp_pref

S1 = frozenset({"hotel(1)", "close", "star2"})
S2 = frozenset({"hotel(2)", "med", "star3"})
S3 = frozenset({"hotel(3)", "tooFar", "star4"})


def report(number: int, description: str, ok: bool, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = " (%.2fs" % elapsed + (", budget %ss)" % budget if budget else ")")
    print("%s criterion %d: %s%s" % (status, number, description, timing))
    assert ok, "criterion %d failed: %s" % (number, description)
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %ss budget" % (number, budget)


@pytest.fixture(scope="module")
def lpod_corpus():
    rng = random.Random(20240515)
    return [random_lpod(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def crp_corpus():
    rng = random.Random(20240516)
    return [random_crp(rng) for _ in range(100)]


def test_criterion_1_first_example_reproduction():
    start = time.perf_counter()
    pi1 = load_program("pi1.lpod")
    candidates = lpod.assumption_candidates(pi1)
    got = {c.assumption: (atom_names(c.atoms), c.degrees) for c in candidates}
    ok = got == {
        (1, 1): ({"a", "b"}, (1, 1)),
        (2, 1): ({"b"}, (2, 1)),
        (0, 2): ({"c"}, (1, 2)),
    }
    for criterion in Criterion:
        pref = name_sets(c.atoms for c in lpod.preferred(candidates, criterion))
        ok = ok and pref == {frozenset({"a", "b"})}
    elapsed = time.perf_counter() - start
    report(1, "pi1 candidates, degrees and preferred under all four criteria", ok, elapsed, 1)


def test_criterion_2_second_example_reproduction():
    start = time.perf_counter()
    pi2 = load_program("pi2.lpod")
    candidates = lpod.assumption_candidates(pi2)
    degrees = {atom_names(c.atoms): c.degrees for c in candidates}
    ok = degrees == {S1: (1, 3), S2: (2, 2), S3: (4, 1)}
    expected = {
        Criterion.CARDINALITY: {S1},
        Criterion.INCLUSION: {S1, S3},
        Criterion.PARETO: {S1, S2, S3},
        Criterion.PENALTY_SUM: {S1, S2},
    }
    for criterion, want in expected.items():
        got = name_sets(c.atoms for c in lpod.preferred(candidates, criterion))
        ok = ok and got == want
    elapsed = time.perf_counter() - start
    report(2, "pi2 degree lists and per-criterion preferred sets", ok, elapsed, 5)


def test_criterion_3_third_example_reproduction():
    start = time.perf_counter()
    pi3 = load_program("pi3.crp")
    pi3p = load_program("pi3p.crp")
    gas = crp_semantics.generalized_answer_sets(pi3)
    ok = len(gas) == 5
    candidate_appl = {
        frozenset(str(t) for t in c.appl_terms())
        for c in crp_semantics.candidate_answer_sets(gas)
    }
    ok = ok and candidate_appl == {
        frozenset({"1"}),
        frozenset({"2", "choice(2,1)"}),
        frozenset({"1", "2", "choice(2,1)"}),
    }
    ok = ok and name_sets(
        crp_semantics.preferred_answer_sets(crp_semantics.candidate_answer_sets(gas), pi3.signature)
    ) == {
        frozenset({"t", "q", "s"}),
        frozenset({"q", "r"}),
    }
    ok = ok and name_sets(
        crp_semantics.preferred_answer_sets(
            crp_semantics.candidate_answer_sets(crp_semantics.generalized_answer_sets(pi3p)),
            pi3p.signature,
        )
    ) == {
        frozenset({"q", "r"})
    }
    elapsed = time.perf_counter() - start
    report(3, "pi3 generalized/candidate/preferred and pi3p preferred", ok, elapsed, 5)


def test_criterion_4_golden_translation_texts():
    pi1 = load_program("pi1.lpod")
    pi2 = load_program("pi2.lpod")
    pi3 = load_program("pi3.crp")
    pi3p = load_program("pi3p.crp")
    ok = tokens(emit(lpod2asp_base(pi1))) == tokens(goldens.PI1_BASE)
    blocks = {
        Criterion.CARDINALITY: goldens.PI2_CARDINALITY,
        Criterion.INCLUSION: goldens.PI2_INCLUSION,
        Criterion.PARETO: goldens.PI2_PARETO,
        Criterion.PENALTY_SUM: goldens.PI2_PENALTY_SUM,
    }
    for criterion, block in blocks.items():
        ok = ok and tokens(emit(lpod2asp_pref(pi2, criterion))) == tokens(
            goldens.PI2_BASE + block
        )
    ok = ok and tokens(emit(crp2asp(pi3))) == tokens(goldens.PI3_CRP)
    ok = ok and tokens(emit(crp2asp(pi3p))) == tokens(
        goldens.PI3_CRP + goldens.PI3P_EXTENSION
    )
    report(4, "emitted translations match the golden listings token-for-token", ok)


def test_criterion_5_split_vs_assumption_suite(lpod_corpus):
    start = time.perf_counter()
    agreed = 0
    for p in lpod_corpus:
        split = lpod.split_candidate_projections(p)
        assumption_side = frozenset(c.atoms for c in lpod.assumption_candidates(p))
        if split == assumption_side:
            agreed += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        "split-program vs assumption-program candidates on %d random programs (%d agree)"
        % (len(lpod_corpus), agreed),
        agreed == len(lpod_corpus) and len(lpod_corpus) >= 200,
        elapsed,
        60,
    )


def test_criterion_6_preferred_translation_suite(lpod_corpus):
    start = time.perf_counter()
    agreed = 0
    total = 0
    for p in lpod_corpus:
        if not p.nonregular_rules:
            continue
        candidates = lpod.assumption_candidates(p)
        by_tuple = {}
        for c in candidates:
            by_tuple.setdefault(c.assumption, set()).add(c.atoms)
        tuples = eval_lpod(lpod2asp_base(p))
        for criterion in Criterion:
            total += 1
            ev = with_criterion(tuples, lpod2asp_pref(p, criterion))
            trans_by_tuple = {xs: set(ev.projections[xs]) for xs in ev.ap_tuples}
            oracle_pref = frozenset(c.atoms for c in lpod.preferred(candidates, criterion))
            if by_tuple == trans_by_tuple and oracle_pref == frozenset(
                frozenset(s) for s in ev.preferred_projections()
            ):
                agreed += 1
    elapsed = time.perf_counter() - start
    report(
        6,
        "oracle preferred == translation pAS on %d program-criterion pairs (%d agree)"
        % (total, agreed),
        agreed == total and total >= 800,
        elapsed,
        300,
    )


def test_criterion_7_crp_translation_suite(crp_corpus):
    start = time.perf_counter()
    agreed = 0
    for p in crp_corpus:
        sigma = p.signature
        gas = crp_semantics.generalized_answer_sets(p)
        oracle_gen = frozenset(g.project(sigma) for g in gas)
        candidates = crp_semantics.candidate_answer_sets(gas)
        oracle_cand = frozenset(g.project(sigma) for g in candidates)
        oracle_pref = frozenset(crp_semantics.preferred_answer_sets(candidates, sigma))
        prop3 = crp_semantics.assumption_projections(p)
        ev = eval_crp(crp2asp(p))
        if (
            oracle_gen == prop3
            and oracle_gen == frozenset(frozenset(s) for s in ev.generalized_projections())
            and oracle_cand == frozenset(frozenset(s) for s in ev.candidate_projections())
            and oracle_pref == frozenset(frozenset(s) for s in ev.preferred_projections())
        ):
            agreed += 1
    elapsed = time.perf_counter() - start
    report(
        7,
        "generalized/candidate/preferred projections on %d random crp programs (%d agree)"
        % (len(crp_corpus), agreed),
        agreed == len(crp_corpus) and len(crp_corpus) >= 100,
        elapsed,
        300,
    )


def test_criterion_8_engine_invariants():
    start = time.perf_counter()
    rng = random.Random(20240517)
    programs = [random_ground_program(rng, max_atoms=10) for _ in range(500)]
    failures = 0
    for p in programs:
        atoms = sorted(p.atoms, key=Atom.sort_key)
        solutions = answer_sets(p, cap=32)
        for s in solutions[:2]:
            interp = s.atoms
            body = rng.sample(atoms, k=min(len(atoms), 2))
            pos = frozenset(a for a in body if rng.random() < 0.5)
            neg = frozenset(a for a in body if a not in pos)
            # true-head addition
            if interp:
                head = rng.choice(sorted(interp, key=Atom.sort_key))
                bigger = GroundProgram(
                    rules=p.rules + (GroundRule(head=head, pos=pos, neg=neg),),
                    extra_atoms=p.atoms,
                )
                failures += not is_answer_set(bigger, interp)
            # false-body rule addition / removal
            head = rng.choice(atoms)
            if not (pos <= interp and not (neg & interp)):
                bigger = GroundProgram(
                    rules=p.rules + (GroundRule(head=head, pos=pos, neg=neg),),
                    extra_atoms=p.atoms,
                )
                failures += not is_answer_set(bigger, interp)
            # satisfied-constraint addition / removal
            constraint = GroundRule(head=None, pos=pos, neg=neg)
            if not constraint.body_holds(interp):
                bigger = GroundProgram(rules=p.rules + (constraint,), extra_atoms=p.atoms)
                failures += not is_answer_set(bigger, interp)
            for i, r in enumerate(p.rules):
                if r.head is None and r.body_holds(interp):
                    smaller = GroundProgram(
                        rules=p.rules[:i] + p.rules[i + 1 :], extra_atoms=p.atoms
                    )
                    failures += not is_answer_set(smaller, interp)
                    break
        # fresh-definition bijection
        fresh_rules = list(p.rules)
        for k in range(rng.randint(1, 2)):
            body = rng.sample(atoms, k=min(len(atoms), 2))
            pos = frozenset(a for a in body if rng.random() < 0.5)
            neg = frozenset(a for a in body if a not in pos)
            fresh_rules.append(GroundRule(head=Atom("fresh", (k,)), pos=pos, neg=neg))
        extended = GroundProgram(rules=tuple(fresh_rules), extra_atoms=p.atoms)
        ext_solutions = answer_sets(extended, cap=32)
        failures += len(ext_solutions) != len(solutions)
        projected = {
            frozenset(a for a in s.atoms if a.predicate != "fresh") for s in ext_solutions
        }
        failures += projected != {s.atoms for s in solutions}
    elapsed = time.perf_counter() - start
    report(
        8,
        "rule addition/removal and fresh-definition invariants on %d ground programs"
        % len(programs),
        failures == 0,
        elapsed,
        None,
    )


def test_criterion_9_monolithic_vs_splitting():
    pi1 = load_program("pi1.lpod")
    base = lpod2asp_base(pi1)
    ground = ground_document(base)
    best = optimal_answer_sets(ground, cap=len(ground.atoms))
    ok = len(best) == 1
    s = best[0].atoms
    mono_tuples = sorted(a.args for a in s if a.predicate == "ap")
    ok = ok and mono_tuples == [(0, 2), (1, 1), (2, 1)]
    shrunk = {xs: atom_names(shrink(s, xs, base.sigma).atoms) for xs in mono_tuples}
    ok = ok and shrunk == {
        (1, 1): {"a", "b"},
        (2, 1): {"b"},
        (0, 2): {"c"},
    }
    doc = lpod2asp_pref(pi1, Criterion.PENALTY_SUM)
    ev = eval_lpod(doc)
    ok = ok and tuple(mono_tuples) == ev.ap_tuples
    for xs in mono_tuples:
        ok = ok and {shrink(s, xs, base.sigma).atoms} == {
            frozenset(proj) for proj in ev.projections[xs]
        }
    full = ground_document(doc)
    best_full = optimal_answer_sets(full, cap=len(full.atoms))
    ok = ok and len(best_full) == 1
    pas = {a.args for a in best_full[0].atoms if a.predicate == "pAS"}
    ok = ok and pas == set(ev.pas_tuples()) == {(1, 1)}
    report(9, "monolithic ground solve equals the splitting evaluation on pi1", ok)
