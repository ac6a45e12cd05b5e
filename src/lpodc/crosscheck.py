"""Oracle-vs-translation agreement checks and counterexample shrinking."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from . import crp as crp_semantics
from . import evaluate, lpod, translate
from .engine import DEFAULT_ATOM_CAP, CapExceeded
from .model import Dialect, Program, canonicalize, validate_program
from .parser import render


@dataclass
class CheckResult:
    ok: bool
    lines: list = field(default_factory=list)

    def add(self, ok: bool, text: str) -> None:
        self.lines.append(("OK" if ok else "MISMATCH") + ": " + text)
        if not ok:
            self.ok = False


def _sets(projections) -> frozenset:
    return frozenset(frozenset(s) for s in projections)


def check_lpod(p: Program, criteria=None, cap: int = DEFAULT_ATOM_CAP) -> CheckResult:
    """Split-vs-assumption agreement plus, per criterion, oracle-vs-evaluator
    agreement on candidates and preferred answer sets. The oracle's
    candidates, the base translation and its tuple layer are computed
    once; per criterion the oracle filters those candidates and the
    evaluator adds that criterion's layer to the tuple layer."""
    criteria = list(criteria or lpod.Criterion)
    result = CheckResult(ok=True)
    split_proj = lpod.split_candidate_projections(p, cap=cap)
    candidates = lpod.assumption_candidates(p, cap=cap)
    assum_proj = frozenset(c.atoms for c in candidates)
    result.add(
        split_proj == assum_proj,
        "%d candidates from %d split programs == assumption-program candidates"
        % (len(assum_proj), prod(r.head_size() for r in p.nonregular_rules)),
    )
    if not p.nonregular_rules:
        result.add(True, "no ordered rules: every answer set is preferred, translation bypassed")
        return result
    oracle_by_tuple = {}
    for c in candidates:
        oracle_by_tuple.setdefault(c.assumption, set()).add(c.atoms)
    base = translate.lpod2asp_base(p)
    tuples = evaluate.eval_lpod(base, cap=cap)
    for criterion in criteria:
        ev = evaluate.with_criterion(tuples, translate.lpod2asp_criterion(base, criterion))
        trans_by_tuple = {xs: set(ev.projections[xs]) for xs in ev.ap_tuples}
        result.add(
            oracle_by_tuple == trans_by_tuple,
            "[%s] candidate tuples and projections agree (%d tuples)"
            % (criterion.value, len(trans_by_tuple)),
        )
        degree_ok = all(
            ev.degrees[c.assumption] == c.degrees for c in candidates if c.assumption in ev.degrees
        )
        result.add(degree_ok, "[%s] degree lists agree" % criterion.value)
        oracle_pref = frozenset(c.atoms for c in lpod.preferred(candidates, criterion))
        trans_pref = _sets(ev.preferred_projections())
        result.add(
            oracle_pref == trans_pref,
            "[%s] %d preferred answer sets, oracle == translation"
            % (criterion.value, len(oracle_pref)),
        )
    return result


def check_crp(p: Program, cap: int = DEFAULT_ATOM_CAP) -> CheckResult:
    """Host-program semantics vs translation on generalized, candidate and
    preferred answer sets (projected onto the original signature)."""
    result = CheckResult(ok=True)
    sigma = p.signature
    gas = crp_semantics.generalized_answer_sets(p, cap=cap)
    candidates = crp_semantics.candidate_answer_sets(gas)
    oracle_gen = frozenset(g.project(sigma) for g in gas)
    oracle_cand = frozenset(g.project(sigma) for g in candidates)
    oracle_pref = frozenset(crp_semantics.preferred_answer_sets(candidates, sigma))
    assum_proj = crp_semantics.assumption_projections(p, cap=cap)
    result.add(
        oracle_gen == assum_proj,
        "%d generalized answer-set projections == assumption-program projections"
        % len(oracle_gen),
    )
    doc = translate.crp2asp(p)
    ev = evaluate.eval_crp(doc, cap=cap)
    result.add(
        oracle_gen == _sets(ev.generalized_projections()),
        "generalized answer sets on sigma agree (%d)" % len(oracle_gen),
    )
    result.add(
        oracle_cand == _sets(ev.candidate_projections()),
        "%d candidate answer sets, oracle == translation" % len(oracle_cand),
    )
    result.add(
        oracle_pref == _sets(ev.preferred_projections()),
        "%d preferred answer sets, oracle == translation" % len(oracle_pref),
    )
    return result


def check_program(p: Program, criteria=None, cap: int = DEFAULT_ATOM_CAP) -> CheckResult:
    if p.dialect is Dialect.LPOD:
        return check_lpod(p, criteria=criteria, cap=cap)
    return check_crp(p, cap=cap)


def shrink_counterexample(p: Program, criteria=None, cap: int = DEFAULT_ATOM_CAP) -> Program:
    """Greedy rule removal while the disagreement persists."""

    def still_fails(q: Program) -> bool:
        q = canonicalize(q)
        if not validate_program(q).ok:
            return False
        try:
            return not check_program(q, criteria=criteria, cap=cap).ok
        except CapExceeded:
            return False

    current = p
    improved = True
    while improved:
        improved = False
        for i in range(len(current.rules)):
            trimmed_rules = current.rules[:i] + current.rules[i + 1 :]
            labels = {r.label for r in trimmed_rules}
            prefers = tuple(
                pair for pair in current.prefer_facts if pair[0] in labels and pair[1] in labels
            )
            q = Program(dialect=current.dialect, rules=trimmed_rules, prefer_facts=prefers)
            if still_fails(q):
                current = canonicalize(q)
                improved = True
                break
        else:
            for j in range(len(current.prefer_facts)):
                q = Program(
                    dialect=current.dialect,
                    rules=current.rules,
                    prefer_facts=current.prefer_facts[:j] + current.prefer_facts[j + 1 :],
                )
                if still_fails(q):
                    current = q
                    improved = True
                    break
    return current


def dump_counterexample(p: Program) -> str:
    return render(p)
