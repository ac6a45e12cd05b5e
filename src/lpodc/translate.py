"""Source-to-source compilation into standard answer set programs.

lpod2asp names every assumption program with an ap(x1,...,xm) atom, extends
every original atom with the assumption degrees, derives a unique degree
assignment per ap atom, and layers one of four preference criteria on top.
crp2asp does the analogous construction with per-kind degree domains plus
dominance, candidate and fewer-applied layers.

Documents are structured: each statement is a small AST over schematic
variables with finite declared domains, so the same object can be emitted
as solver-input text, grounded per assumption tuple, or evaluated as a
stratified layer over collected facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def add_chain(parts):
    expr = parts[0]
    for p in parts[1:]:
        expr = BinOp("+", expr, p)
    return expr


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
    var_domains: tuple = ()  # ((name, (values...)), ...)


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
    # ground templates of the tuple-phase statements, built by
    # evaluate.tuple_ground_program on first use and freed with the document
    templates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def tuple_space(self) -> tuple:
        return tuple(product(*self.domains))

    def ap_terms(self) -> tuple:
        return tuple(Term("ap", t) for t in self.tuple_space())


# --- rendering ----------------------------------------------------------------


def render_expr(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ConstRef):
        return e.name
    if isinstance(e, BinOp):
        return "%s%s%s" % (render_expr(e.lhs), e.op, render_expr(e.rhs))
    if isinstance(e, Fn):
        if not e.args:
            return e.name
        return "%s(%s)" % (e.name, ",".join(render_expr(a) for a in e.args))
    if isinstance(e, Term):
        return str(e)
    return str(e)


def render_item(it) -> str:
    if isinstance(it, Lit):
        inner = "%s(%s)" % (it.pred, ",".join(render_expr(a) for a in it.args)) if it.args else it.pred
        return ("not " if it.neg else "") + inner
    if isinstance(it, Cmp):
        return "%s%s%s" % (render_expr(it.lhs), it.op, render_expr(it.rhs))
    if isinstance(it, RangeBind):
        return "%s=%s..%s" % (it.var.name, render_expr(it.lo), render_expr(it.hi))
    if isinstance(it, CountExpr):
        inner = "; ".join(render_elem(el) for el in it.elements)
        if it.bind is not None:
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


def render_statement(stmt) -> str:
    if isinstance(stmt, FactPoolStmt):
        return "%s(%s)." % (stmt.pred, "; ".join(str(v) for v in stmt.values))
    if isinstance(stmt, WeakStmt):
        body = ", ".join(render_item(b) for b in stmt.body)
        terms = "".join(", " + render_expr(t) for t in stmt.terms)
        return ":~ %s. [%d%s]" % (body, stmt.weight, terms)
    head = stmt.head
    if isinstance(head, ChoiceExpr):
        inner = "; ".join(render_elem(el) for el in head.elements)
        lo = render_expr(head.lower) if head.lower is not None else ""
        hi = render_expr(head.upper) if head.upper is not None else ""
        head_text = "%s{%s}%s" % (lo, inner, hi)
    elif isinstance(head, Lit):
        head_text = render_item(head)
    else:
        head_text = ""
    body_text = ", ".join(render_item(b) for b in stmt.body)
    if not head_text:
        return ":- %s." % body_text
    if not body_text:
        return "%s." % head_text
    return "%s :- %s." % (head_text, body_text)


def emit(d: AspDocument) -> str:
    """Deterministic text in construction order, constants first."""
    lines = ["#const %s = %s." % (name, value) for name, value in d.constants]
    lines.extend(render_statement(s) for s in d.statements)
    return "\n".join(lines) + ("\n" if lines else "")


# --- shared construction helpers ----------------------------------------------


def _xvars(m: int) -> tuple:
    return tuple(Var("X%d" % i) for i in range(1, m + 1))


def _yvars(m: int) -> tuple:
    return tuple(Var("Y%d" % i) for i in range(1, m + 1))


def _extend_atom(a: Atom, xvars: tuple) -> Lit:
    return Lit(a.predicate, tuple(a.args) + xvars)


def _extend_body(body, xvars: tuple) -> tuple:
    return tuple(
        Lit(l.atom.predicate, tuple(l.atom.args) + xvars, neg=l.negated) for l in body
    )


def _ap_lit(xvars: tuple) -> Lit:
    return Lit("ap", xvars)


def _compress_choice_elements(atoms, xvars: tuple) -> tuple:
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
    return tuple(AggElem(_extend_atom(a, xvars)) for a in atoms)


def _regular_statements(p: Program, xvars: tuple, domains) -> list:
    ap = _ap_lit(xvars)
    out = []
    for r in p.regular_rules:
        body = (ap,) + _extend_body(r.body, xvars)
        if r.is_choice:
            lo, up = r.choice_bounds
            head = ChoiceExpr(elements=_compress_choice_elements(r.head_atoms, xvars), lower=lo, upper=up)
        elif r.head_atoms:
            head = _extend_atom(r.head_atoms[0], xvars)
        else:
            head = None
        out.append(RuleStmt(head=head, body=body, tag="regular-rule", var_domains=domains))
    return out


def _xdomain_pairs(m: int, domains) -> tuple:
    return tuple(("X%d" % i, tuple(domains[i - 1])) for i in range(1, m + 1))


def _degree_vars(prefix: str, heads: tuple):
    """Degree variables <prefix>1..<prefix>m and their domains 1..n_i."""
    dvars = tuple(Var("%s%d" % (prefix, i)) for i in range(1, len(heads) + 1))
    return dvars, tuple((d.name, tuple(range(1, n + 1))) for d, n in zip(dvars, heads))


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
    xvars = _xvars(m)
    xdomains = _xdomain_pairs(m, domains)
    ap = _ap_lit(xvars)

    stmts = []
    stmts.append(
        RuleStmt(
            head=ChoiceExpr(
                elements=(
                    AggElem(
                        ap,
                        conds=tuple(
                            RangeBind(x, 0, n) for x, n in zip(xvars, heads)
                        ),
                    ),
                )
            ),
            tag="assumption-choice",
            var_domains=xdomains,
        )
    )
    stmts.append(
        WeakStmt(body=(ap,), weight=-1, terms=xvars, tag="assumption-weight", var_domains=xdomains)
    )
    stmts.extend(_regular_statements(p, xvars, xdomains))

    for r in ordered:
        i = r.index
        xi = xvars[i - 1]
        aux = Lit("body_%d" % i, xvars)
        stmts.append(
            RuleStmt(
                head=aux,
                body=(ap,) + _extend_body(r.body, xvars),
                tag="body-definition",
                var_domains=xdomains,
            )
        )
        stmts.append(
            RuleStmt(
                head=None,
                body=(ap, Cmp("=", xi, 0), aux),
                tag="body-off-constraint",
                var_domains=xdomains,
            )
        )
        stmts.append(
            RuleStmt(
                head=None,
                body=(ap, Cmp(">", xi, 0), Lit(aux.pred, aux.args, neg=True)),
                tag="body-on-constraint",
                var_domains=xdomains,
            )
        )
        for j, cj in enumerate(r.head_atoms, start=1):
            stmts.append(
                RuleStmt(
                    head=_extend_atom(cj, xvars),
                    body=(aux, Cmp("=", xi, j)),
                    tag="head-option",
                    var_domains=xdomains,
                )
            )
        for j, cj in enumerate(r.head_atoms, start=1):
            earlier = tuple(
                Lit(c.predicate, tuple(c.args) + xvars, neg=True)
                for c in r.head_atoms[: j - 1]
            )
            stmts.append(
                RuleStmt(
                    head=None,
                    body=(aux, Cmp("!=", xi, j)) + earlier + (_extend_atom(cj, xvars),),
                    tag="first-true-guard",
                    var_domains=xdomains,
                )
            )

    dvars, ddomains = _degree_vars("D", heads)
    degree = Lit("degree", (Fn("ap", xvars),) + dvars)
    stmts.append(
        RuleStmt(
            head=ChoiceExpr(
                elements=(
                    AggElem(
                        degree,
                        conds=tuple(RangeBind(d, 1, n) for d, n in zip(dvars, heads)),
                    ),
                ),
                lower=1,
                upper=1,
            ),
            body=(ap,),
            tag="degree-choice",
            var_domains=xdomains,
        )
    )
    for i in range(1, m + 1):
        xi, di = xvars[i - 1], dvars[i - 1]
        stmts.append(
            RuleStmt(
                head=None,
                body=(degree, Cmp("=", xi, 0), Cmp("!=", di, 1)),
                tag="degree-from-zero",
                var_domains=xdomains + ddomains,
            )
        )
        stmts.append(
            RuleStmt(
                head=None,
                body=(degree, Cmp(">", xi, 0), Cmp("!=", di, xi)),
                tag="degree-from-positive",
                var_domains=xdomains + ddomains,
            )
        )

    return AspDocument(
        dialect=Dialect.LPOD,
        m=m,
        heads=heads,
        domains=domains,
        sigma=p.signature,
        statements=tuple(stmts),
    )


def _pref_common_tail(m: int, domains, ap_domain) -> list:
    """prf chaining and the pAS rule shared by cardinality and inclusion."""
    x, y = Var("X"), Var("Y")
    p1, p2 = Var("P1"), Var("P2")
    prf = RuleStmt(
        head=Lit("prf", (p1, p2)),
        body=(
            RangeBind(x, 0, BinOp("-", ConstRef("maxdegree"), 1)),
            Lit("prf2degree", (p1, p2, BinOp("+", x, 1))),
            CountExpr(
                elements=(
                    AggElem(Lit("equ2degree", (p1, p2, y)), conds=(RangeBind(y, 1, x),)),
                ),
                lower=x,
            ),
        ),
        tag="preference",
        phase="global",
        var_domains=(("P1", ap_domain), ("P2", ap_domain)),
    )
    return [prf, _pas_statement(m, domains, ap_domain)]


def lpod2asp_pref(p: Program, criterion) -> AspDocument:
    """Full translation: the base document plus one criterion's layer."""
    return lpod2asp_criterion(lpod2asp_base(p), criterion)


def lpod2asp_criterion(base: AspDocument, criterion) -> AspDocument:
    """An `lpod2asp_base` document plus one criterion's layer."""
    from .lpod import Criterion

    if base.dialect is not Dialect.LPOD or base.criterion is not None:
        raise ValueError("a criterion layer extends an lpod2asp_base document")
    m, heads, domains = base.m, base.heads, base.domains
    maxdegree = max(heads)
    ap_domain = base.ap_terms()
    dvars, ddomains = _degree_vars("D", heads)
    d1vars, d1domains = _degree_vars("D1", heads)
    d2vars, d2domains = _degree_vars("D2", heads)
    p1, p2, pv = Var("P1"), Var("P2"), Var("P")
    x = Var("X")
    n, n1, n2 = Var("N"), Var("N1"), Var("N2")
    pdomains = (("P", ap_domain), ("P1", ap_domain), ("P2", ap_domain))
    count_domain = tuple(range(0, m + 1))
    stmts = []

    if criterion is Criterion.CARDINALITY:
        stmts.append(
            RuleStmt(
                head=Lit("card", (pv, x, n)),
                body=(
                    Lit("degree", (pv,) + dvars),
                    RangeBind(x, 1, ConstRef("maxdegree")),
                    CountExpr(
                        elements=tuple(AggElem(Cmp("=", d, x)) for d in dvars),
                        bind=n,
                    ),
                ),
                tag="cardinality-count",
                phase="global",
                var_domains=pdomains + ddomains,
            )
        )
        stmts.append(
            RuleStmt(
                head=Lit("equ2degree", (p1, p2, x)),
                body=(
                    Lit("card", (p1, x, n)),
                    Lit("card", (p2, x, n)),
                    Cmp("!=", p1, p2),
                ),
                tag="equal-at-degree",
                phase="global",
                var_domains=pdomains
                + (("X", tuple(range(1, maxdegree + 1))), ("N", count_domain)),
            )
        )
        stmts.append(
            RuleStmt(
                head=Lit("prf2degree", (p1, p2, x)),
                body=(
                    Lit("card", (p1, x, n1)),
                    Lit("card", (p2, x, n2)),
                    Cmp(">", n1, n2),
                ),
                tag="better-at-degree",
                phase="global",
                var_domains=pdomains
                + (
                    ("X", tuple(range(1, maxdegree + 1))),
                    ("N1", count_domain),
                    ("N2", count_domain),
                ),
            )
        )
        stmts.extend(_pref_common_tail(m, domains, ap_domain))
    elif criterion is Criterion.INCLUSION:
        stmts.append(FactPoolStmt(pred="even", values=(0, 2), tag="even-parity-facts"))
        cvars = tuple(Var("C%d" % i) for i in range(1, m + 1))
        equ_body = [Cmp("!=", p1, p2), RangeBind(x, 1, ConstRef("maxdegree"))]
        equ_body.append(Lit("degree", (p1,) + d1vars))
        equ_body.append(Lit("degree", (p2,) + d2vars))
        for c, d1, d2 in zip(cvars, d1vars, d2vars):
            equ_body.append(
                CountExpr(
                    elements=(AggElem(Cmp("=", d1, x)), AggElem(Cmp("=", d2, x))),
                    bind=c,
                )
            )
        for c in cvars:
            equ_body.append(Lit("even", (c,)))
        stmts.append(
            RuleStmt(
                head=Lit("equ2degree", (p1, p2, x)),
                body=tuple(equ_body),
                tag="equal-at-degree",
                phase="global",
                var_domains=pdomains + d1domains + d2domains,
            )
        )
        prf2_body = [
            Cmp("!=", p1, p2),
            RangeBind(x, 1, ConstRef("maxdegree")),
            Lit("equ2degree", (p1, p2, x), neg=True),
            Lit("degree", (p1,) + d1vars),
            Lit("degree", (p2,) + d2vars),
        ]
        for d1, d2 in zip(d1vars, d2vars):
            prf2_body.append(
                CountExpr(
                    elements=(AggElem(Cmp("!=", d1, x)), AggElem(Cmp("=", d2, x))),
                    upper=1,
                )
            )
        stmts.append(
            RuleStmt(
                head=Lit("prf2degree", (p1, p2, x)),
                body=tuple(prf2_body),
                tag="better-at-degree",
                phase="global",
                var_domains=pdomains + d1domains + d2domains,
            )
        )
        stmts.extend(_pref_common_tail(m, domains, ap_domain))
    elif criterion is Criterion.PARETO:
        stmts.append(
            RuleStmt(
                head=Lit("equ", (p1, p2)),
                body=(Lit("degree", (p1,) + dvars), Lit("degree", (p2,) + dvars)),
                tag="degree-equality",
                phase="global",
                var_domains=pdomains + ddomains,
            )
        )
        prf_body = [
            Lit("degree", (p1,) + d1vars),
            Lit("degree", (p2,) + d2vars),
            Lit("equ", (p1, p2), neg=True),
        ]
        for d1, d2 in zip(d1vars, d2vars):
            prf_body.append(Cmp("<=", d1, d2))
        stmts.append(
            RuleStmt(
                head=Lit("prf", (p1, p2)),
                body=tuple(prf_body),
                tag="preference",
                phase="global",
                var_domains=pdomains + d1domains + d2domains,
            )
        )
        stmts.append(_pas_statement(m, domains, ap_domain))
    elif criterion is Criterion.PENALTY_SUM:
        sum_domain = tuple(range(m, sum(heads) + 1))
        stmts.append(
            RuleStmt(
                head=Lit("sum", (pv, n)),
                body=(Lit("degree", (pv,) + dvars), Cmp("=", n, add_chain(dvars))),
                tag="degree-sum",
                phase="global",
                var_domains=pdomains + ddomains,
            )
        )
        stmts.append(
            RuleStmt(
                head=Lit("prf", (p1, p2)),
                body=(Lit("sum", (p1, n1)), Lit("sum", (p2, n2)), Cmp("<", n1, n2)),
                tag="preference",
                phase="global",
                var_domains=pdomains + (("N1", sum_domain), ("N2", sum_domain)),
            )
        )
        stmts.append(_pas_statement(m, domains, ap_domain))
    else:
        raise ValueError("unknown criterion %r" % (criterion,))

    return AspDocument(
        dialect=Dialect.LPOD,
        m=m,
        heads=heads,
        domains=domains,
        sigma=base.sigma,
        statements=base.statements + tuple(stmts),
        constants=(("maxdegree", maxdegree),),
        criterion=criterion.value,
    )


def _pas_statement(m: int, domains, ap_domain) -> RuleStmt:
    xvars = _xvars(m)
    return RuleStmt(
        head=Lit("pAS", xvars),
        body=(
            _ap_lit(xvars),
            CountExpr(
                elements=(AggElem(Lit("prf", (Var("P"), Fn("ap", xvars)))),),
                upper=0,
            ),
        ),
        tag="preferred-answer-set",
        phase="global",
        var_domains=_xdomain_pairs(m, domains) + (("P", ap_domain),),
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
    xvars = _xvars(m)
    yvars = _yvars(m)
    xdomains = _xdomain_pairs(m, domains)
    ydomains = tuple(("Y%d" % i, tuple(domains[i - 1])) for i in range(1, m + 1))
    ap = _ap_lit(xvars)
    ap_y = Lit("ap", yvars)
    stmts = []
    stmts.append(
        RuleStmt(
            head=ChoiceExpr(
                elements=(
                    AggElem(
                        ap,
                        conds=tuple(
                            RangeBind(x, dom[0], dom[-1])
                            for x, dom in zip(xvars, domains)
                        ),
                    ),
                )
            ),
            tag="assumption-choice",
            var_domains=xdomains,
        )
    )
    stmts.append(
        WeakStmt(body=(ap,), weight=-1, terms=xvars, tag="assumption-weight", var_domains=xdomains)
    )
    stmts.extend(_regular_statements(p, xvars, xdomains))
    for r in rules:
        i = r.index
        xi = xvars[i - 1]
        body = (ap,) + _extend_body(r.body, xvars)
        if r.kind is RuleKind.CR:
            stmts.append(
                RuleStmt(
                    head=_extend_atom(r.head_atoms[0], xvars),
                    body=body + (Cmp("=", xi, 1),),
                    tag="cr-rule",
                    var_domains=xdomains,
                )
            )
        else:
            for j, cj in enumerate(r.head_atoms, start=1):
                stmts.append(
                    RuleStmt(
                        head=_extend_atom(cj, xvars),
                        body=body + (Cmp("=", xi, j),),
                        tag="ordered-option",
                        var_domains=xdomains,
                    )
                )
    dominate_head = Lit("dominate", (Fn("ap", xvars), Fn("ap", yvars)))
    # present only when some rule carries an ordered head; then one rule per
    # index (vacuous for cr-rule domains {0,1}, but that is the emitted form)
    if any(r.kind is not RuleKind.CR for r in rules):
        for i in range(1, m + 1):
            stmts.append(
                RuleStmt(
                    head=dominate_head,
                    body=(
                        ap,
                        ap_y,
                        Cmp("<", 0, xvars[i - 1]),
                        Cmp("<", xvars[i - 1], yvars[i - 1]),
                    ),
                    tag="atomwise-dominance",
                    phase="global",
                    var_domains=xdomains + ydomains,
                )
            )
    stmts.append(
        RuleStmt(
            head=Lit("candidate", xvars),
            body=(
                ap,
                CountExpr(
                    elements=(AggElem(Lit("dominate", (Var("P"), Fn("ap", xvars)))),),
                    upper=0,
                ),
            ),
            tag="candidate-rule",
            phase="global",
            var_domains=xdomains + (("P", tuple(Term("ap", t) for t in product(*domains))),),
        )
    )
    less_body = [Lit("candidate", xvars), Lit("candidate", yvars)]
    less_body.append(
        CountExpr(
            elements=tuple(
                AggElem(Cmp("!=", xv, yv)) for xv, yv in zip(xvars, yvars)
            ),
            lower=1,
        )
    )
    for xv, yv in zip(xvars, yvars):
        less_body.append(Cmp("<=", xv, yv))
    stmts.append(
        RuleStmt(
            head=Lit("lessCrRulesApplied", (Fn("ap", xvars), Fn("ap", yvars))),
            body=tuple(less_body),
            tag="fewer-applied",
            phase="global",
            var_domains=xdomains + ydomains,
        )
    )
    stmts.append(
        RuleStmt(
            head=Lit("pAS", xvars),
            body=(
                Lit("candidate", xvars),
                CountExpr(
                    elements=(
                        AggElem(Lit("lessCrRulesApplied", (Var("P"), Fn("ap", xvars)))),
                    ),
                    upper=0,
                ),
            ),
            tag="preferred-rule",
            phase="global",
            var_domains=xdomains + (("P", tuple(Term("ap", t) for t in product(*domains))),),
        )
    )

    if p.prefer_facts:
        label_index = p.label_index
        pairs = [(label_index[a], label_index[b]) for a, b in p.prefer_facts]
        closure = set(pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        closure_pairs = sorted(closure)
        cr_like = tuple(
            r.index for r in rules if r.kind in (RuleKind.CR, RuleKind.ORDERED_CR)
        )
        r1, r2, r3 = Var("R1"), Var("R2"), Var("R3")
        rdomain = (("R1", cr_like), ("R2", cr_like), ("R3", cr_like))
        for a, b in pairs:
            stmts.append(
                RuleStmt(
                    head=Lit("prefer", (a, b) + xvars),
                    body=(ap,),
                    tag="prefer-lift",
                    var_domains=xdomains,
                )
            )
        stmts.append(
            RuleStmt(
                head=Lit("isPreferred", (r1, r2) + xvars),
                body=(Lit("prefer", (r1, r2) + xvars),),
                tag="preference-closure",
                var_domains=xdomains + rdomain,
            )
        )
        stmts.append(
            RuleStmt(
                head=Lit("isPreferred", (r1, r3) + xvars),
                body=(
                    Lit("prefer", (r1, r2) + xvars),
                    Lit("isPreferred", (r2, r3) + xvars),
                ),
                tag="preference-closure",
                var_domains=xdomains + rdomain,
            )
        )
        stmts.append(
            RuleStmt(
                head=None,
                body=(Lit("isPreferred", (Var("R"), Var("R")) + xvars),),
                tag="preference-irreflexive",
                var_domains=xdomains + (("R", cr_like),),
            )
        )
        for a, b in closure_pairs:
            stmts.append(
                RuleStmt(
                    head=None,
                    body=(
                        Lit("isPreferred", (a, b) + xvars),
                        Cmp(">", xvars[a - 1], 0),
                        Cmp(">", xvars[b - 1], 0),
                    ),
                    tag="preference-applied-conflict",
                    var_domains=xdomains,
                )
            )
        for a, b in closure_pairs:
            stmts.append(
                RuleStmt(
                    head=dominate_head,
                    body=(
                        ap,
                        ap_y,
                        Lit("isPreferred", (a, b) + xvars),
                        Lit("isPreferred", (a, b) + yvars),
                        Cmp(">", xvars[a - 1], 0),
                        Cmp(">", yvars[b - 1], 0),
                    ),
                    tag="rulewise-dominance",
                    phase="global",
                    var_domains=xdomains + ydomains,
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

_EMIT_TOKEN = __import__("re").compile(
    r"#const|\.\.|:~|:-|!=|<=|>=|[A-Za-z_][A-Za-z0-9_]*|\d+|[(){}\[\];:,.=<>+\-]"
)


class _DocReader:
    """Parses the emitter's own output back into statement ASTs.

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
            lower = None
            if self.peek() != "{":
                lower = int(self.next())
            self.expect("{")
            elems = [self.parse_elem()]
            while self.peek() == ";":
                self.next()
                elems.append(self.parse_elem())
            self.expect("}")
            upper = None
            if self.peek().isdigit():
                upper = int(self.next())
            return ChoiceExpr(elements=tuple(elems), lower=lower, upper=upper)
        return self.parse_lit()

    def parse_elem(self) -> AggElem:
        item = self.parse_lit() if not self._comparison_ahead() else self.parse_cmp()
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

    def parse_cmp(self) -> Cmp:
        lhs = self.parse_expr()
        op = self.next()
        rhs = self.parse_expr()
        return Cmp(op=op, lhs=lhs, rhs=rhs)

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
                return Var(tok)
            return ConstRef(tok) if tok in self.consts else tok

        expr = atomish()
        while self.peek() in ("+", "-") and self.peek(1) != "":
            op = self.next()
            expr = BinOp(op, expr, atomish())
        return expr


def parse_emitted(text: str):
    """Inverse of emit on its own output: constants plus statement ASTs."""
    return _DocReader(text).parse()
