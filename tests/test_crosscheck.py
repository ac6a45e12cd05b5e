import random

import pytest

import lpodc.crosscheck as crosscheck
from lpodc import evaluate, lpod, translate
from lpodc.crosscheck import (
    CheckResult,
    check_crp,
    check_lpod,
    dump_counterexample,
    shrink_counterexample,
)
from lpodc.model import Dialect, canonicalize
from lpodc.parser import parse
from lpodc.randgen import random_crp, random_lpod, random_lpod_args
from lpodc.translate import ChoiceExpr, RangeBind, lpod2asp_base


def test_check_lpod_reports_ok(pi1):
    result = check_lpod(pi1)
    assert result.ok
    assert any("preferred" in line for line in result.lines)
    assert all(line.startswith("OK") for line in result.lines)


def test_check_lpod_solves_once_for_all_criteria(pi2, monkeypatch):
    calls = {"solve": 0, "candidates": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(evaluate, "_solve_tuple", counted("solve", evaluate._solve_tuple))
    monkeypatch.setattr(lpod, "assumption_candidates", counted("candidates", lpod.assumption_candidates))
    result = check_lpod(pi2)
    assert result.ok
    assert sum("preferred answer sets" in line for line in result.lines) == len(lpod.Criterion)
    assert calls == {"solve": len(lpod2asp_base(pi2).tuple_space()), "candidates": 1}


def test_check_lpod_builds_the_base_translation_once(pi2, monkeypatch):
    calls = []
    base = translate.lpod2asp_base

    def counted(p):
        calls.append(p)
        return base(p)

    monkeypatch.setattr(translate, "lpod2asp_base", counted)
    result = check_lpod(pi2)
    assert result.ok
    assert sum("preferred answer sets" in line for line in result.lines) == len(lpod.Criterion)
    assert calls == [pi2]


def test_check_lpod_builds_the_split_programs_once(pi2, monkeypatch):
    calls = []
    split = lpod.split_programs

    def counted(p):
        calls.append(p)
        return split(p)

    monkeypatch.setattr(lpod, "split_programs", counted)
    result = check_lpod(pi2)
    assert result.ok
    assert result.lines[0] == "OK: 3 candidates from 12 split programs == assumption-program candidates"
    assert calls == [pi2]


def test_check_lpod_on_atoms_with_arguments():
    rng = random.Random(67)
    for _ in range(20):
        p = random_lpod_args(rng)
        # the numbered family's choice is folded into one conditional element
        doc = lpod2asp_base(p)
        heads = [s.head for s in doc.statements if isinstance(getattr(s, "head", None), ChoiceExpr)]
        conds = [c for h in heads for e in h.elements for c in e.conds]
        assert any(isinstance(c, RangeBind) and c.var.name == "P" for c in conds)
        result = check_lpod(p)
        assert result.ok, result.lines


def test_check_crp_reports_ok(pi3p):
    result = check_crp(pi3p)
    assert result.ok
    assert any(
        "1 preferred answer sets, oracle == translation" in line for line in result.lines
    )


def test_check_crp_on_programs_with_choice_rules():
    # random_crp draws choice rules only when asked, so the other suites have none
    rng = random.Random(20261018)
    programs = [random_crp(rng, with_choice=True) for _ in range(100)]
    assert sum(r.is_choice for p in programs for r in p.rules) >= 100
    assert sum(bool(p.nonregular_rules) for p in programs) >= 90
    for p in programs:
        result = check_crp(p)
        assert result.ok, result.lines


def test_check_degenerate_lpod():
    p = canonicalize(parse("a :- not b.", Dialect.LPOD))
    result = check_lpod(p)
    assert result.ok
    assert any("translation bypassed" in line for line in result.lines)


def test_shrink_keeps_failing_program_minimal(monkeypatch):
    def fake_check(q, criteria=None, cap=24):
        bad = any(atom.predicate == "smelly" for atom in q.atoms())
        return CheckResult(ok=not bad)

    monkeypatch.setattr(crosscheck, "check_program", fake_check)
    text = "a :- not b.\nb :- not a.\nsmelly.\nc * d :- a.\n"
    p = canonicalize(parse(text, Dialect.LPOD))
    small = shrink_counterexample(p)
    assert len(small.rules) == 1
    assert dump_counterexample(small).strip() == "smelly."



def test_shrink_lets_a_checker_crash_through(pi1, monkeypatch):
    def crashing_check(q, criteria=None, cap=24):
        if len(q.rules) < len(pi1.rules):
            raise RuntimeError("checker crashed")
        return CheckResult(ok=False)

    monkeypatch.setattr(crosscheck, "check_program", crashing_check)
    with pytest.raises(RuntimeError, match="checker crashed"):
        shrink_counterexample(pi1)

def test_shrink_on_agreeing_program_is_identity(pi1):
    assert shrink_counterexample(pi1) == pi1


def test_random_shrink_never_crashes():
    rng = random.Random(61)
    for _ in range(5):
        p = random_lpod(rng)
        assert shrink_counterexample(p) == p
