"""Source-to-source compilation into standard answer set programs.

lpod2asp names every assumption program with an ap(x1,...,xm) atom, extends
every original atom with the assumption degrees, derives a unique degree
assignment per ap atom, and layers one of four preference criteria on top.
crp2asp does the analogous construction with per-kind degree domains plus
dominance, candidate and fewer-applied layers.

Documents are structured: each statement is a small AST over schematic
variables with finite declared domains, so the same object can be emitted
as solver-input text, grounded per assumption tuple, or evaluated as a
stratified layer over collected facts. The fixed-shape rules are written as
the text the emitter prints, one line of ASP each as in the paper, with the
m-ary lists (X1,...,Xm, D1,...,Dm, ...) formatted in; `parse_emitted`'s
reader turns each distinct text into its AST once, and the tag, phase and
variable domains are attached beside it. Statements that carry input atoms
are built structurally, so an input constant never passes through text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from itertools import product
from typing import Optional, Union

from .model import Atom, Dialect, Program, RuleKind, Term


class DegenerateProgram(Exception):
    """No ordered rules: the translation is undefined, callers bypass it."""


# --- expression / statement AST ---------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Fn:
    """Compound term with at least one argument; as in ASP, a 0-ary term
    is its constant (the string name)."""

    name: str
    args: tuple


@dataclass(frozen=True)
class ConstRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" | "-"
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Lit:
    pred: str
    args: tuple = ()
    neg: bool = False


@dataclass(frozen=True)
class Cmp:
    op: str  # = != < > <= >=
    lhs: object
    rhs: object


@dataclass(frozen=True)
class RangeBind:
    var: Var
    lo: object
    hi: object


@dataclass(frozen=True)
class AggElem:
    item: Union[Lit, Cmp]
    conds: tuple = ()


@dataclass(frozen=True)
class CountExpr:
    elements: tuple
    lower: object = None
    upper: object = None
    bind: Optional[Var] = None


@dataclass(frozen=True)
class ChoiceExpr:
    elements: tuple
    lower: object = None
    upper: object = None


@dataclass(frozen=True)
class RuleStmt:
    head: object  # Lit | ChoiceExpr | None
    body: tuple = ()
    tag: str = ""
    phase: str = "tuple"  # "tuple" | "global"
    var_domains: tuple = ()  # ((name, values), ...), values any re-iterable


@dataclass(frozen=True)
class WeakStmt:
    body: tuple
    weight: int
    terms: tuple
    tag: str = ""
    phase: str = "tuple"
    var_domains: tuple = ()


@dataclass(frozen=True)
class FactPoolStmt:
    pred: str
    values: tuple
    tag: str = ""
    phase: str = "global"
    var_domains: tuple = ()


@dataclass(frozen=True)
class AspDocument:
    dialect: Dialect
    m: int
    heads: tuple  # n_i per indexed rule
    domains: tuple  # assumption-degree values per index
    sigma: frozenset
    statements: tuple
    constants: tuple = ()  # (name, value) pairs
    criterion: Optional[str] = None
    # the tuple layer compiled by evaluate._tuple_rows on first use: each
    # tuple-phase statement as evaluate._template rewrites it, with its gate
    # and its rows per gate value, the id table of the template atoms they
    # share, and each rewritten statement's grounder; freed with the document
    templates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def tuple_space(self) -> tuple:
        return tuple(product(*self.domains))


# --- rendering ----------------------------------------------------------------


def render_expr(e) -> str:
    if isinstance(e, (Var, ConstRef)):
        return e.name
    if isinstance(e, BinOp):
        return "%s%s%s" % (render_expr(e.lhs), e.op, render_expr(e.rhs))
    if isinstance(e, Fn):
        return "%s(%s)" % (e.name, ",".join(render_expr(a) for a in e.args))
    return str(e)


def render_item(it) -> str:
    if isinstance(it, Lit):
        inner = "%s(%s)" % (it.pred, ",".join(render_expr(a) for a in it.args)) if it.args else it.pred
        return ("not " if it.neg else "") + inner
    if isinstance(it, Cmp):
        return "%s%s%s" % (render_expr(it.lhs), it.op, render_expr(it.rhs))
    if isinstance(it, RangeBind):
        return "%s=%s..%s" % (it.var.name, render_expr(it.lo), render_expr(it.hi))
    if isinstance(it, (CountExpr, ChoiceExpr)):
        inner = "; ".join(render_elem(el) for el in it.elements)
        if isinstance(it, CountExpr) and it.bind is not None:
            return "%s={%s}" % (it.bind.name, inner)
        lo = render_expr(it.lower) if it.lower is not None else ""
        hi = render_expr(it.upper) if it.upper is not None else ""
        return "%s{%s}%s" % (lo, inner, hi)
    raise TypeError(it)


def render_elem(el: AggElem) -> str:
    text = render_item(el.item)
    if el.conds:
        text += ": " + ", ".join(render_item(c) for c in el.conds)
    return text


def render_statement(stmt, item) -> str:
    """One line of solver input; `item` renders each head and body item."""
    if isinstance(stmt, FactPoolStmt):
        return "%s(%s)." % (stmt.pred, "; ".join(str(v) for v in stmt.values))
    if isinstance(stmt, WeakStmt):
        body = ", ".join(map(item, stmt.body))
        terms = "".join(", " + render_expr(t) for t in stmt.terms)
        return ":~ %s. [%d%s]" % (body, stmt.weight, terms)
    head_text = item(stmt.head) if stmt.head is not None else ""
    body_text = ", ".join(map(item, stmt.body))
    if not head_text:
        return ":- %s." % body_text
    if not body_text:
        return "%s." % head_text
    return "%s :- %s." % (head_text, body_text)


def emit(d: AspDocument) -> str:
    """Deterministic text in construction order, constants first. An item
    shared between statements, such as an extended atom, is rendered once
    per call, keyed by identity: the document holds every item meanwhile."""
    texts = {}

    def item(it) -> str:
        text = texts.get(id(it))
        if text is None:
            text = texts[id(it)] = render_item(it)
        return text

    lines = ["#const %s = %s." % (name, value) for name, value in d.constants]
    lines.extend(render_statement(s, item) for s in d.statements)
    return "\n".join(lines) + ("\n" if lines else "")


# --- shared construction helpers ----------------------------------------------


@lru_cache(maxsize=1024)
def _read(text: str) -> tuple:
    """The one statement written as `text`, read once per distinct text, as
    its class and the fields before tag, phase and var_domains (the last
    three fields of every statement class); `maxdegree` reads as the
    constant the criterion layers declare."""
    reader = _DocReader(text)
    reader.consts.add("maxdegree")
    (stmt,) = reader.parse()[1]
    return type(stmt), tuple(getattr(stmt, f.name) for f in fields(stmt)[:-3])


def _rule(text: str, tag: str, var_domains: tuple, phase: str = "tuple"):
    cls, args = _read(text)
    return cls(*args, tag, phase, var_domains)


def _names(prefix: str, m: int) -> list:
    return ["%s%d" % (prefix, i) for i in range(1, m + 1)]


def _call(name: str, args) -> str:
    """name(a1,...,ak), or for k = 0 the constant name: ASP reads a 0-ary
    compound as its constant, so with m = 0 the ap term is the constant ap."""
    return "%s(%s)" % (name, ",".join(args)) if args else name


def _domains(names, values) -> tuple:
    return tuple((n, tuple(v)) for n, v in zip(names, values))


@dataclass(frozen=True)
class _ApTerms:
    """The ap(x1,...,xm) terms of a tuple space, in the form `_call` writes:
    the domain of P, P1 and P2, made only when a grounder enumerates it."""

    domains: tuple

    def __iter__(self):
        return (Term("ap", t) if t else "ap" for t in product(*self.domains))


def _assumption_statements(xs: list, domains) -> list:
    """{ap(X1,...,Xm): X1=lo..hi, ...}. and :~ ap(X1,...,Xm). [-1, X1,...,Xm]"""
    ap, xdom = _call("ap", xs), _domains(xs, domains)
    ranges = ", ".join("%s=%d..%d" % (x, d[0], d[-1]) for x, d in zip(xs, domains))
    return [
        _rule("{%s%s}." % (ap, ranges and ": " + ranges), "assumption-choice", xdom),
        _rule(":~ %s. [-1%s]" % (ap, "".join(", " + x for x in xs)), "assumption-weight", xdom),
    ]


def _extender(xvars: tuple):
    """extend(x): a source Atom or Literal as a Lit with xvars appended, one
    Lit per source object for the translation call that makes `extend`.
    Keyed by identity: the program holds every source object meanwhile."""
    lits = {}

    def extend(x) -> Lit:
        lit = lits.get(id(x))
        if lit is None:
            atom, neg = (x, False) if isinstance(x, Atom) else (x.atom, x.negated)
            lit = lits[id(x)] = Lit(atom.predicate, tuple(atom.args) + xvars, neg)
        return lit

    return extend


def _compress_choice_elements(atoms, xvars: tuple, extend) -> tuple:
    """Fold a ground integer family back into one conditional element.

    p(...,lo,...) ; ... ; p(...,hi,...) differing in exactly one integer
    argument over a contiguous range becomes p(...,V,...): V=lo..hi. That is
    how bounded choices over numbered constants read in solver input, and
    what the emitted documents are compared against.
    """
    first = atoms[0]
    if len(atoms) >= 2 and all(
        a.predicate == first.predicate and len(a.args) == len(first.args) for a in atoms
    ):
        for pos in range(len(first.args)):
            if not all(isinstance(a.args[pos], int) for a in atoms):
                continue
            rest_ok = all(
                a.args[:pos] == first.args[:pos] and a.args[pos + 1 :] == first.args[pos + 1 :]
                for a in atoms
            )
            values = sorted(a.args[pos] for a in atoms)
            contiguous = values == list(range(values[0], values[0] + len(values)))
            if rest_ok and contiguous and len(set(values)) == len(atoms):
                v = Var(first.predicate[0].upper())
                args = tuple(first.args[:pos]) + (v,) + tuple(first.args[pos + 1 :]) + xvars
                elem = AggElem(
                    Lit(first.predicate, args), conds=(RangeBind(v, values[0], values[-1]),)
                )
                return (elem,)
    return tuple(AggElem(extend(a)) for a in atoms)


def _regular_statements(p: Program, xvars: tuple, extend, domains) -> list:
    ap = Lit("ap", xvars)
    out = []
    for r in p.regular_rules:
        body = (ap,) + tuple(map(extend, r.body))
        if r.is_choice:
            lo, up = r.choice_bounds
            head = ChoiceExpr(elements=_compress_choice_elements(r.head_atoms, xvars, extend), lower=lo, upper=up)
        elif r.head_atoms:
            head = extend(r.head_atoms[0])
        else:
            head = None
        out.append(RuleStmt(head=head, body=body, tag="regular-rule", var_domains=domains))
    return out


# --- lpod2asp -------------------------------------------------------------------


def lpod2asp_base(p: Program) -> AspDocument:
    """Assumption-naming core: ap choice, weak preference for consistency,
    degree-extended rules, per-rule first-true pinning, degree assignment."""
    if p.dialect is not Dialect.LPOD:
        raise ValueError("lpod2asp takes the lpod dialect")
    ordered = p.nonregular_rules
    m = len(ordered)
    if m == 0:
        raise DegenerateProgram("no ordered rules to compile")
    heads = tuple(r.head_size() for r in ordered)
    domains = p.assumption_domains()
    xs, ds = _names("X", m), _names("D", m)
    X, ap = ",".join(xs), _call("ap", xs)
    xvars = tuple(Var(x) for x in xs)
    xdom = _domains(xs, domains)
    extend = _extender(xvars)

    stmts = _assumption_statements(xs, domains) + _regular_statements(p, xvars, extend, xdom)
    for r in ordered:
        i = r.index
        xi = xvars[i - 1]
        aux = Lit("body_%d" % i, xvars)
        body = (Lit("ap", xvars),) + tuple(map(extend, r.body))
        stmts.append(RuleStmt(head=aux, body=body, tag="body-definition", var_domains=xdom))
        stmts.append(_rule(":- %s, X%d=0, body_%d(%s)." % (ap, i, i, X), "body-off-constraint", xdom))
        stmts.append(_rule(":- %s, X%d>0, not body_%d(%s)." % (ap, i, i, X), "body-on-constraint", xdom))
        for j, cj in enumerate(r.head_atoms, start=1):
            head, body = extend(cj), (aux, Cmp("=", xi, j))
            stmts.append(RuleStmt(head=head, body=body, tag="head-option", var_domains=xdom))
        for j, cj in enumerate(r.head_atoms, start=1):
            earlier = tuple(replace(extend(c), neg=True) for c in r.head_atoms[: j - 1])
            body = (aux, Cmp("!=", xi, j)) + earlier + (extend(cj),)
            stmts.append(RuleStmt(head=None, body=body, tag="first-true-guard", var_domains=xdom))

    degree = "degree(%s,%s)" % (ap, ",".join(ds))
    ranges = ", ".join("%s=1..%d" % (d, n) for d, n in zip(ds, heads))
    stmts.append(_rule("1{%s: %s}1 :- %s." % (degree, ranges, ap), "degree-choice", xdom))
    ddom = xdom + _domains(ds, (range(1, n + 1) for n in heads))
    for x, d in zip(xs, ds):
        stmts.append(_rule(":- %s, %s=0, %s!=1." % (degree, x, d), "degree-from-zero", ddom))
        stmts.append(_rule(":- %s, %s>0, %s!=%s." % (degree, x, d, x), "degree-from-positive", ddom))

    return AspDocument(
        dialect=Dialect.LPOD,
        m=m,
        heads=heads,
        domains=domains,
        sigma=p.signature,
        statements=tuple(stmts),
    )


def lpod2asp_pref(p: Program, criterion) -> AspDocument:
    """Full translation: the base document plus one criterion's layer."""
    return lpod2asp_criterion(lpod2asp_base(p), criterion)


def lpod2asp_criterion(base: AspDocument, criterion) -> AspDocument:
    """An `lpod2asp_base` document plus one criterion's layer."""
    from .lpod import Criterion

    if base.dialect is not Dialect.LPOD or base.criterion is not None:
        raise ValueError("a criterion layer extends an lpod2asp_base document")
    m, heads = base.m, base.heads
    maxdegree = max(heads)
    xs, ds, d1s, d2s = _names("X", m), _names("D", m), _names("D1", m), _names("D2", m)
    X, D, ap = ",".join(xs), ",".join(ds), _call("ap", xs)
    degree_pair = "degree(P1,%s), degree(P2,%s)" % (",".join(d1s), ",".join(d2s))
    ap_domain = _ApTerms(base.domains)
    pdom = tuple((v, ap_domain) for v in ("P", "P1", "P2"))
    degree_values = [range(1, n + 1) for n in heads]
    ddom = pdom + _domains(ds, degree_values)
    d12dom = pdom + _domains(d1s, degree_values) + _domains(d2s, degree_values)
    at_x = (("X", tuple(range(1, maxdegree + 1))),)
    counts = tuple(range(0, m + 1))
    prf_by_degree = _rule(
        "prf(P1,P2) :- X=0..maxdegree-1, prf2degree(P1,P2,X+1), X{equ2degree(P1,P2,Y): Y=1..X}.",
        "preference", pdom[1:], "global",
    )

    if criterion is Criterion.CARDINALITY:
        stmts = [
            _rule(
                "card(P,X,N) :- degree(P,%s), X=1..maxdegree, N={%s}." % (D, "; ".join(d + "=X" for d in ds)),
                "cardinality-count", ddom, "global",
            ),
            _rule(
                "equ2degree(P1,P2,X) :- card(P1,X,N), card(P2,X,N), P1!=P2.",
                "equal-at-degree", pdom + at_x + (("N", counts),), "global",
            ),
            _rule(
                "prf2degree(P1,P2,X) :- card(P1,X,N1), card(P2,X,N2), N1>N2.",
                "better-at-degree", pdom + at_x + (("N1", counts), ("N2", counts)), "global",
            ),
            prf_by_degree,
        ]
    elif criterion is Criterion.INCLUSION:
        pairs = list(zip(range(1, m + 1), d1s, d2s))
        stmts = [
            _rule("even(0; 2).", "even-parity-facts", (), "global"),
            _rule(
                "equ2degree(P1,P2,X) :- P1!=P2, X=1..maxdegree, %s, %s, %s." % (
                    degree_pair,
                    ", ".join("C%d={%s=X; %s=X}" % pair for pair in pairs),
                    ", ".join("even(C%d)" % i for i in range(1, m + 1)),
                ),
                "equal-at-degree", d12dom, "global",
            ),
            _rule(
                "prf2degree(P1,P2,X) :- P1!=P2, X=1..maxdegree, not equ2degree(P1,P2,X), %s, %s."
                % (degree_pair, ", ".join("{%s!=X; %s=X}1" % pair[1:] for pair in pairs)),
                "better-at-degree", d12dom, "global",
            ),
            prf_by_degree,
        ]
    elif criterion is Criterion.PARETO:
        stmts = [
            _rule("equ(P1,P2) :- degree(P1,%s), degree(P2,%s)." % (D, D), "degree-equality", ddom, "global"),
            _rule(
                "prf(P1,P2) :- %s, not equ(P1,P2), %s."
                % (degree_pair, ", ".join("%s<=%s" % pair for pair in zip(d1s, d2s))),
                "preference", d12dom, "global",
            ),
        ]
    elif criterion is Criterion.PENALTY_SUM:
        sums = tuple(range(m, sum(heads) + 1))
        stmts = [
            _rule("sum(P,N) :- degree(P,%s), N=%s." % (D, "+".join(ds)), "degree-sum", ddom, "global"),
            _rule(
                "prf(P1,P2) :- sum(P1,N1), sum(P2,N2), N1<N2.",
                "preference", pdom + (("N1", sums), ("N2", sums)), "global",
            ),
        ]
    else:
        raise ValueError("unknown criterion %r" % (criterion,))
    stmts.append(
        _rule(
            "pAS(%s) :- %s, {prf(P,%s)}0." % (X, ap, ap),
            "preferred-answer-set", _domains(xs, base.domains) + (("P", ap_domain),), "global",
        )
    )

    return AspDocument(
        dialect=Dialect.LPOD,
        m=m,
        heads=heads,
        domains=base.domains,
        sigma=base.sigma,
        statements=base.statements + tuple(stmts),
        constants=(("maxdegree", maxdegree),),
        criterion=criterion.value,
    )


# --- crp2asp -------------------------------------------------------------------


def crp2asp(p: Program) -> AspDocument:
    """Mixed-domain assumption naming plus dominance, candidate and
    fewer-applied layers; the rule-wise block appears only when the program
    carries prefer facts."""
    if p.dialect is not Dialect.CRP2:
        raise ValueError("crp2asp takes the crp2 dialect")
    rules = p.nonregular_rules
    m = len(rules)
    heads = tuple(r.head_size() for r in rules)
    domains = p.assumption_domains()
    xs, ys = _names("X", m), _names("Y", m)
    X, Y = ",".join(xs), ",".join(ys)
    ap, ap_y, candidate = _call("ap", xs), _call("ap", ys), _call("candidate", xs)
    xvars = tuple(Var(x) for x in xs)
    xdom = _domains(xs, domains)
    xydom = xdom + _domains(ys, domains)
    pdom = xdom + (("P", _ApTerms(domains)),)
    extend = _extender(xvars)

    stmts = _assumption_statements(xs, domains) + _regular_statements(p, xvars, extend, xdom)
    for r in rules:
        body = (Lit("ap", xvars),) + tuple(map(extend, r.body))
        xi = xvars[r.index - 1]
        if r.kind is RuleKind.CR:
            head, extra = extend(r.head_atoms[0]), Cmp("=", xi, 1)
            stmts.append(RuleStmt(head=head, body=body + (extra,), tag="cr-rule", var_domains=xdom))
            continue
        for j, cj in enumerate(r.head_atoms, start=1):
            head, extra = extend(cj), Cmp("=", xi, j)
            stmts.append(RuleStmt(head=head, body=body + (extra,), tag="ordered-option", var_domains=xdom))
    dominate = "dominate(%s,%s) :- %s, %s, " % (ap, ap_y, ap, ap_y)
    # present only when some rule carries an ordered head; then one rule per
    # index (vacuous for cr-rule domains {0,1}, but that is the emitted form)
    if any(r.kind is not RuleKind.CR for r in rules):
        for x, y in zip(xs, ys):
            text = dominate + "0<%s, %s<%s." % (x, x, y)
            stmts.append(_rule(text, "atomwise-dominance", xydom, "global"))
    text = "%s :- %s, {dominate(P,%s)}0." % (candidate, ap, ap)
    stmts.append(_rule(text, "candidate-rule", pdom, "global"))
    stmts.append(
        _rule(
            "lessCrRulesApplied(%s,%s) :- %s, %s, 1{%s}%s." % (
                ap, ap_y, candidate, _call("candidate", ys),
                "; ".join("%s!=%s" % pair for pair in zip(xs, ys)),
                "".join(", %s<=%s" % pair for pair in zip(xs, ys)),
            ),
            "fewer-applied", xydom, "global",
        )
    )
    stmts.append(
        _rule(
            "%s :- %s, {lessCrRulesApplied(P,%s)}0." % (_call("pAS", xs), candidate, ap),
            "preferred-rule", pdom, "global",
        )
    )

    if p.prefer_facts:
        label_index = p.label_index
        pairs = [(label_index[a], label_index[b]) for a, b in p.prefer_facts]
        closure = set(pairs)
        while True:
            new = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
            if not new:
                break
            closure |= new
        cr_like = tuple(r.index for r in rules if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR))
        rdom = xdom + (("R1", cr_like), ("R2", cr_like), ("R3", cr_like))
        for a, b in pairs:
            stmts.append(_rule("prefer(%d,%d,%s) :- %s." % (a, b, X, ap), "prefer-lift", xdom))
        stmts.append(_rule("isPreferred(R1,R2,%s) :- prefer(R1,R2,%s)." % (X, X), "preference-closure", rdom))
        stmts.append(
            _rule(
                "isPreferred(R1,R3,%s) :- prefer(R1,R2,%s), isPreferred(R2,R3,%s)." % (X, X, X),
                "preference-closure", rdom,
            )
        )
        stmts.append(_rule(":- isPreferred(R,R,%s)." % X, "preference-irreflexive", xdom + (("R", cr_like),)))
        for a, b in sorted(closure):
            stmts.append(
                _rule(
                    ":- isPreferred(%d,%d,%s), X%d>0, X%d>0." % (a, b, X, a, b),
                    "preference-applied-conflict", xdom,
                )
            )
        for a, b in sorted(closure):
            stmts.append(
                _rule(
                    dominate + "isPreferred(%d,%d,%s), isPreferred(%d,%d,%s), X%d>0, Y%d>0."
                    % (a, b, X, a, b, Y, a, b),
                    "rulewise-dominance", xydom, "global",
                )
            )

    return AspDocument(
        dialect=Dialect.CRP2,
        m=m,
        heads=heads,
        domains=domains,
        sigma=p.signature,
        statements=tuple(stmts),
    )


# --- reading emitted text back ---------------------------------------------------

_EMIT_TOKEN = re.compile(
    r"#const|\.\.|:~|:-|!=|<=|>=|[A-Za-z_][A-Za-z0-9_]*|\d+|[(){}\[\];:,.=<>+\-]"
)


class _DocReader:
    """Parses the emitter's own output back into statement ASTs; the
    translations build their fixed-shape rules with it (`_read`).

    Tags, phases and variable domains are construction knowledge and come
    back empty; everything the text carries (heads, bodies, aggregates,
    bounds, weights, constants) round-trips exactly.
    """

    def __init__(self, text: str):
        stripped = "\n".join(
            line.split("%")[0] for line in text.splitlines()
        )
        self.toks = _EMIT_TOKEN.findall(stripped)
        self.i = 0
        self.consts: set = set()
        self.vars: dict = {}  # one Var per name: a document repeats X1,...,Xm in every statement

    def peek(self, ahead: int = 0) -> str:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else ""

    def next(self) -> str:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ValueError("expected %r, found %r" % (tok, got))

    def at_var(self) -> bool:
        tok = self.peek()
        return bool(tok) and tok[0].isupper()

    def parse(self):
        constants = []
        statements = []
        while self.peek():
            if self.peek() == "#const":
                self.next()
                name = self.next()
                self.expect("=")
                value = int(self.next())
                self.expect(".")
                self.consts.add(name)
                constants.append((name, value))
            else:
                statements.append(self.parse_statement())
        return tuple(constants), tuple(statements)

    def parse_statement(self):
        if self.peek() == ":~":
            self.next()
            body = self.parse_body()
            self.expect(".")
            self.expect("[")
            weight = self.parse_expr()
            terms = []
            while self.peek() == ",":
                self.next()
                terms.append(self.parse_expr())
            self.expect("]")
            return WeakStmt(body=tuple(body), weight=weight, terms=tuple(terms))
        if self.peek() == ":-":
            self.next()
            body = self.parse_body()
            self.expect(".")
            return RuleStmt(head=None, body=tuple(body))
        head = self.parse_head()
        if isinstance(head, FactPoolStmt):
            self.expect(".")
            return head
        body = ()
        if self.peek() == ":-":
            self.next()
            body = tuple(self.parse_body())
        self.expect(".")
        return RuleStmt(head=head, body=body)

    def parse_head(self):
        if self.peek() == "{" or (self.peek().isdigit() and self.peek(1) == "{"):
            agg = self.parse_count(bind=None)
            return ChoiceExpr(elements=agg.elements, lower=agg.lower, upper=agg.upper)
        return self.parse_lit()

    def parse_elem(self) -> AggElem:
        item = self.parse_item()
        conds = []
        if self.peek() == ":":
            self.next()
            conds.append(self.parse_range())
            while self.peek() == ",":
                self.next()
                conds.append(self.parse_range())
        return AggElem(item=item, conds=tuple(conds))

    def _comparison_ahead(self) -> bool:
        # a comparison begins with a number, or an identifier/variable whose
        # very next token is a comparator (not "(" of a literal)
        tok, after = self.peek(), self.peek(1)
        if tok.isdigit():
            return True
        return after in ("=", "!=", "<", ">", "<=", ">=", "+", "-")

    def parse_range(self) -> RangeBind:
        var = Var(self.next())
        self.expect("=")
        lo = self.parse_expr()
        self.expect("..")
        hi = self.parse_expr()
        return RangeBind(var=var, lo=lo, hi=hi)

    def parse_body(self):
        items = [self.parse_item()]
        while self.peek() == ",":
            self.next()
            items.append(self.parse_item())
        return items

    def parse_item(self):
        tok = self.peek()
        if tok == "not":
            self.next()
            lit = self.parse_lit()
            return Lit(lit.pred, lit.args, neg=True)
        if tok == "{" or (tok.isdigit() and self.peek(1) == "{") or (
            self.at_var() and self.peek(1) == "{"
        ):
            return self.parse_count(bind=None)
        if not self._comparison_ahead():
            return self.parse_lit()
        lhs = self.parse_expr()
        op = self.next()
        if op not in ("=", "!=", "<", ">", "<=", ">="):
            raise ValueError("expected a comparison operator, found %r" % op)
        if op == "=" and self.peek() == "{":
            return self.parse_count(bind=lhs)
        rhs = self.parse_expr()
        if op == "=" and self.peek() == "..":
            self.next()
            hi = self.parse_expr()
            return RangeBind(var=lhs, lo=rhs, hi=hi)
        return Cmp(op=op, lhs=lhs, rhs=rhs)

    def parse_count(self, bind) -> CountExpr:
        lower = None
        if self.peek() != "{":
            lower = self.parse_expr()
        self.expect("{")
        elems = []
        if self.peek() != "}":
            elems.append(self.parse_elem())
            while self.peek() == ";":
                self.next()
                elems.append(self.parse_elem())
        self.expect("}")
        upper = None
        if bind is None and (self.peek().isdigit() or self.at_var()):
            upper = self.parse_expr()
        return CountExpr(elements=tuple(elems), lower=lower, upper=upper, bind=bind)

    def parse_lit(self):
        name = self.next()
        args = ()
        if self.peek() == "(":
            self.next()
            parts = [self.parse_expr()]
            if self.peek() == ";":
                # pooled fact such as even(0; 2)
                values = list(parts)
                while self.peek() == ";":
                    self.next()
                    values.append(self.parse_expr())
                self.expect(")")
                return FactPoolStmt(pred=name, values=tuple(values))
            while self.peek() == ",":
                self.next()
                parts.append(self.parse_expr())
            self.expect(")")
            args = tuple(parts)
        return Lit(name, args)

    def parse_expr(self):
        def atomish():
            tok = self.next()
            if tok == "-":
                return -int(self.next())
            if tok.isdigit():
                return int(tok)
            if self.peek() == "(":
                self.next()
                parts = [self.parse_expr()]
                while self.peek() == ",":
                    self.next()
                    parts.append(self.parse_expr())
                self.expect(")")
                return Fn(tok, tuple(parts))
            if tok[0].isupper():
                return self.vars.setdefault(tok, Var(tok))
            return ConstRef(tok) if tok in self.consts else tok

        expr = atomish()
        while self.peek() in ("+", "-") and self.peek(1) != "":
            op = self.next()
            expr = BinOp(op, expr, atomish())
        return expr


def parse_emitted(text: str):
    """Inverse of emit on its own output: constants plus statement ASTs."""
    return _DocReader(text).parse()
